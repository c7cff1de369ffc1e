package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"kleb/internal/experiments"
	"kleb/internal/isa"
	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/monitor"
	"kleb/internal/session"
	"kleb/internal/trace"
	"kleb/internal/workload"
)

// bench is one benchmark workload.
type bench interface {
	// setup generates the workload's inputs from seed and builds what the
	// timed window needs. It is timed and repeated, so it must be idempotent.
	setup(seed uint64) error
	// run drives the workload until deadline, finishing the batch or fleet
	// in flight, and checks every output. A deadline already past runs
	// exactly one batch or fleet.
	run(deadline time.Time, tr *tracer) *tally
}

// overheadEvents is the overhead study's event set: the four programmable
// events of the paper's Fig 9 plus retired instructions.
var overheadEvents = []isa.Event{isa.EvLoads, isa.EvStores, isa.EvBranches, isa.EvLLCMisses, isa.EvInstructions}

// toolPeriod is the user-space tools' sampling period, the paper's Table II
// setting and the 10ms jiffy floor of timer-based user tools.
const toolPeriod = 10 * ktime.Millisecond

// deriveSeeds returns n per-trial seeds derived from the benchmark seed.
func deriveSeeds(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = session.DeriveSeed(seed, i)
	}
	return out
}

// scriptJob builds a job running a fresh program of script.
func scriptJob(spec session.Spec, script workload.Script) job {
	spec.TargetName = script.Name
	return job{
		spec:    spec,
		program: func() kernel.Program { return script.Program() },
		instr:   script.TotalInstr(),
		check:   func(r *session.Result, _ kernel.Program, _ io.Writer) error { return checkLedger(r) },
	}
}

// withTool attaches a fresh tool of kind per run at period.
func withTool(j job, kind experiments.ToolKind, points int, period ktime.Duration) job {
	j.spec.NewTool = func() (monitor.Tool, error) { return experiments.NewTool(kind, points) }
	j.spec.Config = monitor.Config{Events: overheadEvents, Period: period, ExcludeKernel: true}
	return j
}

// --- overhead-batch ---------------------------------------------------------

// paperTable2 is the paper's Table II: mean run-time overhead (%) of each
// tool on the triple-loop matmul at 10ms.
var paperTable2 = map[experiments.ToolKind]float64{
	experiments.KLEB:       0.68,
	experiments.PerfStat:   6.01,
	experiments.PerfRecord: 1.65,
	experiments.PAPI:       6.43,
	experiments.LiMiT:      4.08,
}

// overheadBatch is a closed-loop batch of Table II runs: the triple-loop
// matmul bare on both machine profiles, then under each of the five tools,
// for every trial seed, repeated until the window closes.
type overheadBatch struct {
	workers int
	trials  int
	ref     []string

	profiles []machine.Profile
	seeds    []uint64
	script   workload.Script
	bare     []job

	// table2 is the simulated mean overhead per tool, from the first batch
	// (every batch is identical: the digests check it).
	table2 map[experiments.ToolKind]float64
}

func (w *overheadBatch) setup(seed uint64) error {
	w.script = workload.NewTripleLoopMatmul().Script()
	if len(w.script.Compile().Runs) == 0 {
		return fmt.Errorf("overhead-batch: %s compiles to an empty stream", w.script.Name)
	}
	w.profiles = []machine.Profile{machine.Nehalem(), machine.LiMiTKernel()}
	w.seeds = deriveSeeds(seed, w.trials)
	w.bare = w.bare[:0]
	for _, prof := range w.profiles {
		for _, s := range w.seeds {
			w.bare = append(w.bare, scriptJob(session.Spec{Profile: prof, Seed: s}, w.script))
		}
	}
	return nil
}

// bareIndex locates the bare run a tool's trial is compared against.
func (w *overheadBatch) bareIndex(kind experiments.ToolKind, trial int) int {
	name := experiments.ProfileFor(kind).Name
	for pi, p := range w.profiles {
		if p.Name == name {
			return pi*w.trials + trial
		}
	}
	panic("overhead-batch: no bare profile for " + string(kind))
}

func (w *overheadBatch) run(deadline time.Time, tr *tracer) *tally {
	t := &tally{}
	t.repeat(deadline, func() { w.batch(tr, t) })
	t.layer = map[string]float64{
		"model.kleb_overhead_pct":      w.table2[experiments.KLEB],
		"model.table2_max_abs_err_pct": table2MaxErr(w.table2),
	}
	return t
}

func (w *overheadBatch) batch(tr *tracer, t *tally) {
	tools := experiments.AllTools()
	bare := phase(w.bare, w.workers, tr, t)
	for i, o := range bare {
		if o.err != nil {
			t.attempted += len(tools) * w.trials
			t.fail(len(tools)*w.trials, "bare run %d failed; monitored runs skipped", i)
			return
		}
	}
	var jobs []job
	for _, kind := range tools {
		for trial, s := range w.seeds {
			base := bare[w.bareIndex(kind, trial)].res.Elapsed
			j := scriptJob(session.Spec{Profile: experiments.ProfileFor(kind), Seed: s}, w.script)
			jobs = append(jobs, withTool(j, kind, pointsFor(base, toolPeriod), toolPeriod))
		}
	}
	mon := phase(jobs, w.workers, tr, t)
	compareDigests(append(bare, mon...), w.ref, t)
	if w.table2 != nil {
		return
	}
	w.table2 = map[experiments.ToolKind]float64{}
	for ki, kind := range tools {
		var sum float64
		for trial := range w.seeds {
			o := mon[ki*w.trials+trial]
			if o.err != nil {
				w.table2 = nil
				return
			}
			base := bare[w.bareIndex(kind, trial)].res.Elapsed
			sum += trace.OverheadPct(base.Seconds(), o.res.Elapsed.Seconds())
		}
		w.table2[kind] = sum / float64(w.trials)
	}
}

// table2MaxErr is the worst absolute difference, in percentage points,
// between the simulated and the paper's Table II overheads.
func table2MaxErr(sim map[experiments.ToolKind]float64) float64 {
	var worst float64
	for kind, paper := range paperTable2 {
		if v, ok := sim[kind]; ok {
			worst = math.Max(worst, math.Abs(v-paper))
		}
	}
	return worst
}

// renderTable2 prints the simulated overheads beside the paper's.
func renderTable2(w io.Writer, sim map[experiments.ToolKind]float64) {
	fmt.Fprintf(w, "table2: tool          simulated%%   paper%%   abs.err\n")
	for _, kind := range experiments.AllTools() {
		fmt.Fprintf(w, "table2: %-12s %10.2f %8.2f %9.2f\n", kind, sim[kind], paperTable2[kind], math.Abs(sim[kind]-paperTable2[kind]))
	}
	fmt.Fprintf(w, "table2: max abs error %.2f points\n", table2MaxErr(sim))
}

// --- serve-hf ---------------------------------------------------------------

// serveInstr is the serve model's per-run instruction budget, 5/12 of the
// taillat study's: short enough that a window completes the thousand runs a
// p99 needs, long enough that the high-frequency layers (kernel timers,
// K-LEB, the serve model) outweigh the cost memo's cold-start bracket.
const serveInstr = 500_000_000

// serveTool is one monitored configuration of serve-hf.
type serveTool struct {
	kind   experiments.ToolKind
	period ktime.Duration
}

// serveTools: K-LEB in the paper's high-frequency regime, the user tools at
// their 10ms floor.
var serveTools = []serveTool{
	{experiments.KLEB, 100 * ktime.Microsecond},
	{experiments.PerfStat, toolPeriod},
	{experiments.PAPI, toolPeriod},
}

// serveHF runs the request-serving model, open- and closed-loop, bare and
// under each of serveTools, for every trial seed, repeated until the window
// closes.
type serveHF struct {
	workers int
	trials  int
	ref     []string

	models []workload.Serve
	seeds  []uint64
	bare   []job

	klebOverhead float64
}

func (w *serveHF) setup(seed uint64) error {
	open := workload.NewServe()
	open.TotalInstr = serveInstr
	w.models = []workload.Serve{open, open.ClosedLoop(2_000_000, 5300*ktime.Second)}
	for _, m := range w.models {
		if len(m.Script().Compile().Runs) == 0 {
			return fmt.Errorf("serve-hf: %s compiles to an empty stream", m.Name)
		}
	}
	w.seeds = deriveSeeds(seed, w.trials)
	w.bare = w.bare[:0]
	for _, m := range w.models {
		for _, s := range w.seeds {
			w.bare = append(w.bare, serveJob(m, s))
		}
	}
	return nil
}

// serveJob builds a bare run of model with seed driving both the machine
// and the offered load.
func serveJob(model workload.Serve, seed uint64) job {
	return job{
		spec:    session.Spec{Profile: machine.Nehalem(), Seed: seed, TargetName: model.Name},
		program: func() kernel.Program { return model.Program(seed) },
		instr:   model.Script().TotalInstr(),
		check: func(r *session.Result, prog kernel.Program, d io.Writer) error {
			if err := checkLedger(r); err != nil {
				return err
			}
			st := prog.(*workload.ServeProgram).Stats()
			fmt.Fprintf(d, "serve arrivals=%d completed=%d rejected=%d inflight=%d peak=%d cancelled=%d span=%d..%d\n",
				st.Arrivals, st.Completed, st.Rejected, st.InFlightAtEnd, st.PeakInFlight, st.ClonesCancelled, st.Start, st.End)
			fmt.Fprintf(d, "latency n=%d sum=%d p50=%d p99=%d max=%d\n",
				st.Latency.Count(), st.Latency.Sum(), st.Latency.Quantile(0.5), st.Latency.Quantile(0.99), st.Latency.Max())
			if st.Arrivals != st.Completed+st.Rejected+st.InFlightAtEnd {
				return fmt.Errorf("serve requests not conserved: %d arrivals != %d completed + %d rejected + %d in flight",
					st.Arrivals, st.Completed, st.Rejected, st.InFlightAtEnd)
			}
			return nil
		},
	}
}

func (w *serveHF) run(deadline time.Time, tr *tracer) *tally {
	t := &tally{}
	t.repeat(deadline, func() { w.batch(tr, t) })
	t.layer = map[string]float64{"model.kleb_overhead_pct": w.klebOverhead}
	return t
}

func (w *serveHF) batch(tr *tracer, t *tally) {
	bare := phase(w.bare, w.workers, tr, t)
	for i, o := range bare {
		if o.err != nil {
			n := len(serveTools) * len(w.bare)
			t.attempted += n
			t.fail(n, "bare run %d failed; monitored runs skipped", i)
			return
		}
	}
	var jobs []job
	for _, st := range serveTools {
		for i, b := range w.bare {
			points := pointsFor(bare[i].res.Elapsed, toolPeriod)
			jobs = append(jobs, withTool(b, st.kind, points, st.period))
		}
	}
	mon := phase(jobs, w.workers, tr, t)
	compareDigests(append(bare, mon...), w.ref, t)
	if w.klebOverhead != 0 {
		return
	}
	var sum float64
	for i := range w.bare {
		if mon[i].err != nil {
			return
		}
		sum += trace.OverheadPct(bare[i].res.Elapsed.Seconds(), mon[i].res.Elapsed.Seconds())
	}
	w.klebOverhead = sum / float64(len(w.bare))
}
