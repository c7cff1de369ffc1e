// Package kleb is a faithful, fully simulated reproduction of K-LEB
// (Kernel — Lineage of Event Behavior), the kernel-module performance
// counter monitor of Woralert, Bruska, Liu & Yan, "High Frequency
// Performance Monitoring via Architectural Event Measurement" (IISWC 2020).
//
// Everything the paper's system touches is implemented in this module: a
// register-level PMU, a cache/branch/CPU core model, a Linux-like kernel
// (scheduler, HRTimers, kprobes, loadable modules, a perf_events
// subsystem), the K-LEB module and controller, and the four baseline tools
// (perf stat, perf record, PAPI, LiMiT). See DESIGN.md for the inventory
// and EXPERIMENTS.md for the reproduced tables and figures.
//
// This root package is the stable entry point for downstream users: pick a
// machine, pick a workload, collect a high-frequency hardware event time
// series, and analyze it.
//
//	report, err := kleb.Collect(kleb.CollectOptions{
//	    Workload: kleb.Meltdown().Attack(),
//	    Events:   []kleb.Event{kleb.LLCReferences, kleb.LLCMisses, kleb.Instructions},
//	    Period:   100 * kleb.Microsecond,
//	})
package kleb

import (
	"fmt"
	"io"

	"kleb/internal/anomaly"
	"kleb/internal/experiments"
	"kleb/internal/isa"
	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/monitor"
	"kleb/internal/pmu"
	"kleb/internal/power"
	"kleb/internal/session"
	"kleb/internal/telemetry"
	"kleb/internal/trace"
	"kleb/internal/workload"
)

// Event identifies a hardware event.
type Event = isa.Event

// The monitorable hardware events.
const (
	Instructions     = isa.EvInstructions
	Cycles           = isa.EvCycles
	RefCycles        = isa.EvRefCycles
	Loads            = isa.EvLoads
	Stores           = isa.EvStores
	Branches         = isa.EvBranches
	BranchMisses     = isa.EvBranchMisses
	LLCReferences    = isa.EvLLCRefs
	LLCMisses        = isa.EvLLCMisses
	L1DMisses        = isa.EvL1DMisses
	L2Misses         = isa.EvL2Misses
	ArithMuls        = isa.EvMulOps
	FloatingPointOps = isa.EvFPOps
	CacheFlushes     = isa.EvCacheFlushes
	DTLBMisses       = isa.EvDTLBMisses
	StallCycles      = isa.EvStallCycles
	// MemoryReads / MemoryWrites are uncore (IMC) events: socket-wide DRAM
	// CAS command counts. Only K-LEB and perf stat can collect them.
	MemoryReads  = isa.EvCASReads
	MemoryWrites = isa.EvCASWrites
)

// EventByName resolves a mnemonic such as "LLC_MISSES".
func EventByName(name string) (Event, bool) { return isa.EventByName(name) }

// Encoding is an architectural event encoding (event select + umask +
// modifier flags), the hardware-level vocabulary behind the Event classes.
type Encoding = pmu.Encoding

// ParseRawEvent parses perf's raw event syntax "rUUEE" (umask UU, event
// select EE, both hex) into an Encoding, e.g. "r412e" = LLC misses.
func ParseRawEvent(s string) (Encoding, error) {
	enc, ok := pmu.ParseRawEncoding(s)
	if !ok {
		return Encoding{}, fmt.Errorf("kleb: %q is not a raw event (syntax rUUEE, hex umask and event select)", s)
	}
	return enc, nil
}

// WriteEventTable renders the machine's architectural event table — every
// event the PMU decodes, its encoding, and which counters can host it.
func WriteEventTable(w io.Writer, m MachineKind) error {
	prof, err := profileFor(m)
	if err != nil {
		return err
	}
	prof.Events.Render(w)
	return nil
}

// Time and Duration are instants/spans of virtual time in nanoseconds.
type (
	Time     = ktime.Time
	Duration = ktime.Duration
)

// Duration units.
const (
	Nanosecond  = ktime.Nanosecond
	Microsecond = ktime.Microsecond
	Millisecond = ktime.Millisecond
	Second      = ktime.Second
)

// MachineKind selects a simulated hardware profile.
type MachineKind string

// The available machines (the paper's two testbeds plus the LiMiT box).
const (
	// Nehalem is the Intel Core i7-920 @ 2.67GHz local testbed.
	Nehalem MachineKind = "nehalem"
	// CascadeLake is the AWS Xeon Platinum 8259CL validation machine.
	CascadeLake MachineKind = "cascadelake"
	// LegacyLiMiT is the Ubuntu 12.04 / 2.6.32 machine with the LiMiT
	// kernel patch applied.
	LegacyLiMiT MachineKind = "limit-legacy"
)

func profileFor(k MachineKind) (machine.Profile, error) {
	switch k {
	case Nehalem, "":
		return machine.Nehalem(), nil
	case CascadeLake:
		return machine.CascadeLake(), nil
	case LegacyLiMiT:
		return machine.LiMiTKernel(), nil
	}
	return machine.Profile{}, fmt.Errorf("kleb: unknown machine %q", k)
}

// ToolKind selects a collection mechanism. The default is K-LEB itself; the
// baselines exist for head-to-head comparisons.
type ToolKind string

// The five tools.
const (
	ToolKLEB       ToolKind = "kleb"
	ToolPerfStat   ToolKind = "perf-stat"
	ToolPerfRecord ToolKind = "perf-record"
	ToolPAPI       ToolKind = "papi"
	ToolLiMiT      ToolKind = "limit"
)

// newTool builds a fresh instance of the tool k names ("" = K-LEB).
func newTool(k ToolKind) (monitor.Tool, error) {
	if k == "" {
		k = ToolKLEB
	}
	t, err := experiments.NewTool(experiments.ToolKind(k), 0)
	if err != nil {
		return nil, fmt.Errorf("kleb: unknown tool %q", k)
	}
	return t, nil
}

// Workload is a monitored program. Obtain one from the constructors below.
type Workload struct {
	name    string
	factory func() kernel.Program
	flops   uint64
}

// Name returns the workload's name.
func (w Workload) Name() string { return w.name }

// Flops returns the nominal floating point operation count (0 when the
// workload has no meaningful flop count).
func (w Workload) Flops() uint64 { return w.flops }

func scriptWorkload(s workload.Script, flops uint64) Workload {
	return Workload{
		name:    s.Name,
		factory: func() kernel.Program { return s.Program() },
		flops:   flops,
	}
}

// Linpack returns the LINPACK benchmark workload for problem size n
// (0 selects the paper's 5000).
func Linpack(n uint64) Workload {
	if n == 0 {
		n = 5000
	}
	lp := workload.NewLinpack(n)
	return scriptWorkload(lp.Script(), lp.Flops())
}

// TripleLoopMatmul returns the naive matrix multiplication workload of the
// paper's overhead study (~2 s).
func TripleLoopMatmul() Workload {
	m := workload.NewTripleLoopMatmul()
	return scriptWorkload(m.Script(), m.Flops())
}

// DgemmMatmul returns the MKL-dgemm-style workload (<100 ms).
func DgemmMatmul() Workload {
	m := workload.NewDgemmMatmul()
	return scriptWorkload(m.Script(), m.Flops())
}

// Container returns the Docker engine launching the named container image
// (see ContainerImages for the available names). Monitoring it exercises
// K-LEB's process lineage tracking: the counts come from the container
// child.
func Container(image string) (Workload, error) {
	img, ok := workload.ImageByName(image)
	if !ok {
		return Workload{}, fmt.Errorf("kleb: unknown container image %q", image)
	}
	return Workload{
		name:    "docker-" + image,
		factory: func() kernel.Program { return workload.DockerRun(img) },
	}, nil
}

// ContainerImages lists the modeled Docker Hub image names.
func ContainerImages() []string {
	var names []string
	for _, img := range workload.Images() {
		names = append(names, img.Name)
	}
	return names
}

// MeltdownStudy builds the side-channel case study's workloads.
type MeltdownStudy struct{ m workload.Meltdown }

// Meltdown returns the study with the paper's configuration.
func Meltdown() MeltdownStudy { return MeltdownStudy{m: workload.NewMeltdown()} }

// Victim is the plain secret-printing program (<10 ms).
func (s MeltdownStudy) Victim() Workload { return scriptWorkload(s.m.VictimScript(), 0) }

// Attack is the same program with the Flush+Reload exploit attached.
func (s MeltdownStudy) Attack() Workload { return scriptWorkload(s.m.AttackScript(), 0) }

// HeartbleedStudy builds the data-only-exploit case study's workloads
// (after Torres & Liu, the paper's reference [26]): a TLS server answering
// heartbeats, with an attack variant whose malicious requests each leak
// ~64KB of adjacent heap.
type HeartbleedStudy struct{ h workload.Heartbleed }

// Heartbleed returns the study with the standard configuration.
func Heartbleed() HeartbleedStudy { return HeartbleedStudy{h: workload.NewHeartbleed()} }

// Server is the benign request stream.
func (s HeartbleedStudy) Server() Workload { return scriptWorkload(s.h.ServerScript(), 0) }

// Attack is the same stream with a mid-run burst of malicious heartbeats.
func (s HeartbleedStudy) Attack() Workload { return scriptWorkload(s.h.AttackScript(), 0) }

// Synthetic builds a single-phase workload with the given instruction
// budget, memory footprint in bytes, and random-access fraction.
func Synthetic(instr, footprint uint64, randomFrac float64) Workload {
	s := workload.Synthetic{
		TotalInstr: instr,
		Footprint:  footprint,
		RandomFrac: randomFrac,
	}.Script()
	return scriptWorkload(s, 0)
}

// Serve builds the request-serving cloud workload (the taillat study's
// target): a three-tier service with processor-sharing replicas, hedged
// requests, and an open-loop arrival stream, coupled to the machine through
// its instruction capacity. seed drives the workload's traffic; the run's
// Seed drives everything else, so equal option sets replay bit-identically.
// Per-run serving statistics are on the program, not the Report; use the
// taillat experiment for the full tail-latency comparison.
func Serve(seed uint64) Workload {
	sv := workload.NewServe()
	return Workload{
		name:    sv.Name,
		factory: func() kernel.Program { return sv.Program(seed) },
	}
}

// CollectOptions configures one monitored run.
type CollectOptions struct {
	// Machine selects the hardware profile (default Nehalem).
	Machine MachineKind
	// Seed makes runs reproducible; equal seeds replay bit-identically.
	Seed uint64
	// Workload is the program to monitor (required).
	Workload Workload
	// Events are the hardware events to collect (required; at most four
	// beyond the fixed instructions/cycles/ref-cycles counters for K-LEB).
	Events []Event
	// RawEvents requests additional events by architectural encoding (perf's
	// rUUEE syntax, see ParseRawEvent). Each encoding is resolved against the
	// machine's event table at attach time and appended to Events; an
	// encoding the machine does not expose is an error.
	RawEvents []Encoding
	// Period is the sampling interval; K-LEB sustains 100µs, user-timer
	// tools bottom out at 10ms (default 10ms).
	Period Duration
	// IncludeKernel also counts ring-0 execution.
	IncludeKernel bool
	// Tool selects the collection mechanism (default K-LEB).
	Tool ToolKind
	// Baseline additionally runs the workload unmonitored on the same seed
	// and reports the monitoring overhead.
	Baseline bool
	// Strace, when non-nil, receives an strace-style line for every
	// syscall any simulated process makes during the run.
	Strace io.Writer
	// DumpState, when non-nil, receives a /proc-style dump of the kernel's
	// final state (process table, modules, devices) after the run.
	DumpState io.Writer
	// Trace, when non-nil, receives the monitored run's event trace as
	// Chrome trace-event JSON (loadable in Perfetto or chrome://tracing):
	// context switches, HRTimer arm/fire (with per-fire jitter), kprobes,
	// syscalls, PMIs, module ioctls, K-LEB ring activity and session
	// lifecycle stages, all stamped with virtual time. Byte-identical for
	// the same options at any Workers value.
	Trace io.Writer
	// Metrics, when non-nil, receives the monitored run's aggregated
	// metrics in Prometheus text exposition format, including the timer
	// jitter and PMI latency histograms. Deterministic like Trace.
	Metrics io.Writer
	// Workers sizes the scheduler pool used when the call needs several
	// runs (Baseline, Compare); 0 means GOMAXPROCS. Results are identical
	// for every worker count.
	Workers int
}

// Report is the outcome of Collect.
type Report struct {
	// Tool and Events describe the collection.
	Tool   ToolKind
	Events []Event
	// Samples is the periodic time series (per-event deltas).
	Samples []monitor.Sample
	// Totals are whole-run counts as reported by the tool.
	Totals map[Event]uint64
	// Estimated marks totals derived by sampling/multiplexing estimation.
	Estimated bool
	// Scale is the per-event enabled/running extrapolation factor a
	// multiplexing tool applied (1.0 = exact count); nil for tools that
	// never multiplex.
	Scale map[Event]float64
	// Elapsed is the workload's execution time; GFLOPS is derived from the
	// workload's nominal flop count when it has one.
	Elapsed Duration
	GFLOPS  float64
	// BaselineElapsed and OverheadPct are set when Baseline was requested.
	BaselineElapsed Duration
	OverheadPct     float64
	// DroppedSamples counts buffer-full safety stops.
	DroppedSamples uint64
}

// SeriesFor extracts one event's per-sample delta series.
func (r *Report) SeriesFor(ev Event) []uint64 {
	res := monitor.Result{Events: r.Events, Samples: r.Samples}
	return res.SeriesFor(ev)
}

// MPKI returns LLC misses per kilo-instruction for the whole run; both
// events must have been collected.
func (r *Report) MPKI() float64 {
	return trace.MPKI(r.Totals[LLCMisses], r.Totals[Instructions])
}

// WriteCSV renders the sample series in the controller's log format.
func (r *Report) WriteCSV(w io.Writer) error {
	return trace.WriteCSV(w, r.Events, r.Samples)
}

// Sparkline renders one event's series as a unicode bar chart.
func (r *Report) Sparkline(ev Event, width int) string {
	return trace.Sparkline(r.SeriesFor(ev), width)
}

// Detector is an online anomaly detector over the collected sample stream
// (see the internal/anomaly package): the paper's motivating application
// for 100µs sampling.
type Detector = anomaly.Detector

// DetectionReport summarizes a detector pass.
type DetectionReport = anomaly.Report

// NewMPKIDetector returns a detector flagging windows whose LLC
// misses-per-kilo-instruction exceed a learned baseline. The report must
// have collected LLCMisses and Instructions.
func NewMPKIDetector(events []Event) (Detector, error) {
	return anomaly.NewMPKIDetector(events)
}

// NewLLCRatioDetector returns a detector flagging windows whose LLC
// miss/reference ratio looks like a Flush+Reload probe. The report must
// have collected LLCMisses and LLCReferences.
func NewLLCRatioDetector(events []Event) (Detector, error) {
	return anomaly.NewRatioDetector(events)
}

// NewCUSUMDetector returns a cumulative-sum change detector over one
// event's per-window rate — it catches sustained shifts (e.g. a data-only
// exploit's extra load traffic) too gentle for threshold rules.
func NewCUSUMDetector(events []Event, ev Event) (Detector, error) {
	return anomaly.NewCUSUMDetector(events, ev)
}

// PowerModel estimates dynamic power from collected samples (the paper's
// cited power-estimation use case, reference [12]).
type PowerModel = power.Model

// PowerEstimate is a power trace with its integral.
type PowerEstimate = power.Estimate

// DefaultPowerModel returns Nehalem-class per-event energy weights.
func DefaultPowerModel() PowerModel { return power.DefaultModel() }

// EstimatePower evaluates a power model over the report's sample stream.
func (r *Report) EstimatePower(m PowerModel) (*PowerEstimate, error) {
	return m.FromSamples(r.Events, r.Samples)
}

// Detect runs a detector over the report's sample stream in capture order,
// as the controller would during live monitoring.
func (r *Report) Detect(d Detector) DetectionReport {
	return anomaly.Scan(d, r.Samples)
}

// InterferenceCell reports how one container behaves next to a neighbour
// on the other core of a shared-LLC socket.
type InterferenceCell struct {
	// Image ran on core 0, Neighbour on core 1 ("" = ran alone).
	Image, Neighbour string
	// Runtime is the image's execution time; Slowdown is Runtime over the
	// image's solo runtime on the same socket.
	Runtime  Duration
	Slowdown float64
}

// Interference measures the pairwise slowdown of container images running
// concurrently on two cores of one socket (private L1/L2, shared LLC) —
// the co-location study behind the paper's §IV-B scheduling discussion.
// The returned cells include a solo baseline (Neighbour == "") and both
// directions of every pairing.
func Interference(images []string, seed uint64) ([]InterferenceCell, error) {
	res, err := experiments.RunColocate(experiments.Params{Seed: seed}, images)
	if err != nil {
		return nil, err
	}
	out := make([]InterferenceCell, 0, len(res.Cells))
	for _, c := range res.Cells {
		out = append(out, InterferenceCell{
			Image: c.Image, Neighbour: c.Neighbour,
			Runtime: c.Runtime, Slowdown: c.Slowdown,
		})
	}
	return out, nil
}

// monitoredSpec builds the session spec for one monitored run of the
// workload; the strace hook attaches only here, never to baselines.
func monitoredSpec(opts CollectOptions, prof machine.Profile, kind ToolKind, period Duration) session.Spec {
	spec := session.Spec{
		Profile:    prof,
		Seed:       opts.Seed,
		TargetName: opts.Workload.name,
		NewTarget:  opts.Workload.factory,
		NewTool:    func() (monitor.Tool, error) { return newTool(kind) },
		Config: monitor.Config{
			Events:        opts.Events,
			Raw:           opts.RawEvents,
			Period:        period,
			ExcludeKernel: !opts.IncludeKernel,
		},
	}
	if opts.Strace != nil {
		spec.OnBoot = func(m *machine.Machine) { m.Kernel().TraceSyscalls(opts.Strace) }
	}
	return spec
}

// reportFrom converts a finished session run into the public Report.
func reportFrom(opts CollectOptions, kind ToolKind, run *session.Result) *Report {
	report := &Report{
		Tool:           kind,
		Events:         run.Result.Events,
		Samples:        run.Result.Samples,
		Totals:         run.Result.Totals,
		Estimated:      run.Result.Estimated,
		Scale:          run.Result.Scale,
		Elapsed:        run.Elapsed,
		DroppedSamples: run.Result.Dropped,
	}
	if report.Tool == "" {
		report.Tool = ToolKLEB
	}
	if opts.Workload.flops > 0 && run.Elapsed > 0 {
		report.GFLOPS = float64(opts.Workload.flops) / 1e9 / run.Elapsed.Seconds()
	}
	return report
}

// Collect boots the machine, runs the workload under the selected tool and
// returns the collected data. With Baseline set, the monitored and
// unmonitored runs execute as one scheduler batch.
func Collect(opts CollectOptions) (*Report, error) {
	if opts.Workload.factory == nil {
		return nil, fmt.Errorf("kleb: CollectOptions.Workload is required")
	}
	prof, err := profileFor(opts.Machine)
	if err != nil {
		return nil, err
	}
	if _, err := newTool(opts.Tool); err != nil {
		return nil, err
	}
	period := opts.Period
	if period == 0 {
		period = 10 * Millisecond
	}
	specs := []session.Spec{monitoredSpec(opts, prof, opts.Tool, period)}
	var sink *telemetry.Sink
	if opts.Trace != nil || opts.Metrics != nil {
		if opts.Trace != nil {
			sink = telemetry.New()
		} else {
			sink = telemetry.MetricsOnly()
		}
		specs[0].Telemetry = sink
	}
	if opts.Baseline {
		specs = append(specs, session.Spec{
			Profile:    prof,
			Seed:       opts.Seed,
			TargetName: opts.Workload.name,
			NewTarget:  opts.Workload.factory,
		})
	}
	outs := session.Scheduler{Workers: opts.Workers}.Run(specs)
	if err := session.FirstErr(outs); err != nil {
		return nil, err
	}
	run := outs[0].Run
	if opts.DumpState != nil {
		run.Machine.Kernel().DumpState(opts.DumpState)
	}
	report := reportFrom(opts, opts.Tool, run)
	if opts.Baseline {
		base := outs[1].Run
		report.BaselineElapsed = base.Elapsed
		report.OverheadPct = trace.OverheadPct(base.Elapsed.Seconds(), run.Elapsed.Seconds())
	}
	if opts.Trace != nil {
		if err := sink.WriteChromeTrace(opts.Trace); err != nil {
			return nil, fmt.Errorf("kleb: writing trace: %w", err)
		}
	}
	if opts.Metrics != nil {
		if err := sink.WritePrometheus(opts.Metrics); err != nil {
			return nil, fmt.Errorf("kleb: writing metrics: %w", err)
		}
	}
	return report, nil
}

// CompareRow is one tool's outcome in a Compare call.
type CompareRow struct {
	Tool ToolKind
	// Unsupported explains why the tool cannot run on the selected machine
	// (e.g. LiMiT needs its kernel patch); the Report is nil then.
	Unsupported string
	// Report is the tool's collection, with BaselineElapsed/OverheadPct
	// filled in against the shared unmonitored baseline.
	Report *Report
}

// Compare runs the same workload under several tools (default: all five)
// plus one unmonitored baseline, as a single scheduler batch, and reports
// each tool's collection and overhead side by side. Tools the selected
// machine cannot host come back with Unsupported set rather than failing
// the batch.
func Compare(opts CollectOptions, tools ...ToolKind) ([]CompareRow, error) {
	if opts.Workload.factory == nil {
		return nil, fmt.Errorf("kleb: CollectOptions.Workload is required")
	}
	if len(tools) == 0 {
		for _, kind := range experiments.AllTools() {
			tools = append(tools, ToolKind(kind))
		}
	}
	// Several runs would interleave on shared strace/trace/metrics writers;
	// per-run debug taps only make sense on Collect.
	opts.Strace = nil
	opts.DumpState = nil
	opts.Trace = nil
	opts.Metrics = nil
	prof, err := profileFor(opts.Machine)
	if err != nil {
		return nil, err
	}
	for _, kind := range tools {
		if _, err := newTool(kind); err != nil {
			return nil, err
		}
	}
	period := opts.Period
	if period == 0 {
		period = 10 * Millisecond
	}
	specs := make([]session.Spec, 0, len(tools)+1)
	for _, kind := range tools {
		specs = append(specs, monitoredSpec(opts, prof, kind, period))
	}
	specs = append(specs, session.Spec{
		Profile:    prof,
		Seed:       opts.Seed,
		TargetName: opts.Workload.name,
		NewTarget:  opts.Workload.factory,
	})
	outs := session.Scheduler{Workers: opts.Workers}.Run(specs)
	baseOut := outs[len(tools)]
	if baseOut.Err != nil {
		return nil, baseOut.Err
	}
	base := baseOut.Run
	rows := make([]CompareRow, len(tools))
	for i, kind := range tools {
		rows[i].Tool = kind
		if kind == "" {
			rows[i].Tool = ToolKLEB
		}
		if outs[i].Err != nil {
			rows[i].Unsupported = outs[i].Err.Error()
			continue
		}
		report := reportFrom(opts, kind, outs[i].Run)
		report.BaselineElapsed = base.Elapsed
		report.OverheadPct = trace.OverheadPct(base.Elapsed.Seconds(), outs[i].Run.Elapsed.Seconds())
		rows[i].Report = report
	}
	return rows, nil
}
