// Command perfbench is the simulator's benchmark. It drives one of three
// workloads through the simulator's public entry points for a fixed
// host-time window, checks every simulated output, and prints the
// end-to-end metrics, or with --trace 1 the per-layer metrics, by name and
// unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root; README.md describes the
// workloads, the metrics and the seeds.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"kleb/internal/fleet"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_ginstr_per_s", "Ginstr/s"},
	{"runs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer the workload does not
// reach reads 0.
var perLayer = []metricDef{
	{"cpu.bracket_cpu_share", "ratio"},
	{"cpu.cpu_share", "ratio"},
	{"cache.cpu_share", "ratio"},
	{"branch.cpu_share", "ratio"},
	{"workload.compile_ms", "ms"},
	{"workload.cpu_share", "ratio"},
	{"kernel.ctx_switches_per_run", "count"},
	{"kernel.timer_fires_per_run", "count"},
	{"kernel.syscalls_per_run", "count"},
	{"kernel.cpu_share", "ratio"},
	{"pmu.pmis_per_run", "count"},
	{"pmu.cpu_share", "ratio"},
	{"kleb.samples_per_run", "count"},
	{"kleb.ring_drained_per_run", "count"},
	{"kleb.ring_pauses_per_run", "count"},
	{"kleb.cpu_share", "ratio"},
	{"tools.cpu_share", "ratio"},
	{"session.boot_ms", "ms"},
	{"session.attach_ms", "ms"},
	{"session.drive_ms", "ms"},
	{"session.drain_ms", "ms"},
	{"session.queue_wait_ms", "ms"},
	{"session.worker_busy_ratio", "ratio"},
	{"session.cpu_share", "ratio"},
	{"machine.cpu_share", "ratio"},
	{"runtime.alloc_mb_per_run", "MB"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.cpu_share", "ratio"},
	{"fleet.snapshot_ms", "ms"},
	{"fleet.merge_p99_ms", "ms"},
	{"fleet.shard_lag_max", "count"},
	{"fleet.degraded_ratio", "ratio"},
	{"fleet.cpu_share", "ratio"},
	{"telemetry.prom_encode_ms", "ms"},
	{"telemetry.cpu_share", "ratio"},
	{"bench.scrape_late_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"model.kleb_overhead_pct", "%"},
	{"model.table2_max_abs_err_pct", "%"},
	{"model.sim_s_per_run", "s"},
}

// setupRepeats is how many times set-up runs; setup_s is their median.
const setupRepeats = 15

// referenceSeed is the seed whose run digests reference.json records.
const referenceSeed = 1

//go:embed reference.json
var referenceJSON []byte

// reference maps each workload to its run digests at referenceSeed, in
// batch order.
type reference map[string][]string

// newBench builds the named workload. ref is its reference digests, nil
// when the seed has none.
func newBench(name string, ref []string) (bench, error) {
	workers := runtime.NumCPU()
	switch name {
	case "overhead-batch":
		return &overheadBatch{workers: workers, trials: 4, ref: ref}, nil
	case "serve-hf":
		return &serveHF{workers: workers, trials: 2, ref: ref}, nil
	case "fleet-scrape":
		// One shard per CPU but one, which the scraper uses.
		shards := workers - 1
		if shards < 1 {
			shards = 1
		}
		return &fleetScrape{
			ref: ref,
			cfg: fleet.Config{Nodes: 16, Shards: shards, Rounds: 12, FaultEvery: 5, ClusterEvery: 4},
			// 200 scrapes per second.
			scrapeEvery: 5 * time.Millisecond,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want overhead-batch, serve-hf or fleet-scrape)", name)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "overhead-batch, serve-hf or fleet-scrape")
	seed := fs.Uint64("seed", referenceSeed, "input seed")
	seconds := fs.Float64("seconds", 30, "length of the measured window")
	traced := fs.Int("trace", 0, "1 for the traced run and per-layer metrics")
	writeRef := fs.String("write-reference", "", "record the workload's digests at the reference seed into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeRef != "" {
		if err := writeReference(*writeRef, *name); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var refs reference
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		fmt.Fprintln(stderr, "perfbench: reference.json:", err)
		return 1
	}
	var ref []string
	if *seed == referenceSeed {
		ref = refs[*name]
	}
	b, err := newBench(*name, ref)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seed == referenceSeed && ref == nil {
		fmt.Fprintf(stderr, "perfbench: reference.json has no digests for %q\n", *name)
		return 1
	}
	window := time.Duration(*seconds * float64(time.Second))
	if window <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	res, err := measure(b, *name, *seed, window, *traced == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure sets the workload up, warms it with one checked batch, then runs
// the measured window: untraced for the end-to-end metrics, or half
// untraced and half traced for the per-layer metrics.
func measure(b bench, name string, seed uint64, window time.Duration, traced bool, out io.Writer) (*result, error) {
	host, _ := json.Marshal(readHost())
	fmt.Fprintf(out, "host: %s\n", host)
	fmt.Fprintf(out, "workload: %s seed %d window %v traced %v\n", name, seed, window, traced)

	setup, err := timeSetup(b, seed)
	if err != nil {
		return nil, err
	}
	// Warm-up: one batch, checked but not timed. The traced run collects its
	// per-run telemetry counts here.
	var counts *tracer
	if traced {
		counts = newTracer(true)
	}
	checks := b.run(time.Now(), counts)

	vals := map[string]float64{}
	var timed *tally
	if !traced {
		heap := startHeapSampler()
		timed = b.run(time.Now().Add(window), nil)
		vals["heap_peak_mb"] = heap.peakMB()
		vals["setup_s"] = setup
		vals["runs_per_s"], vals["sim_ginstr_per_s"] = timed.rates()
		vals["latency_p50_ms"] = quantileMs(&timed.lat, 0.5)
		vals["latency_p99_ms"] = quantileMs(&timed.lat, 0.99)
		fmt.Fprintf(out, "latency: %d samples, %d beyond p99\n", timed.lat.Count(), timed.lat.Count()/100)
	} else {
		plain := b.run(time.Now().Add(window/2), nil)
		checks.mergeChecks(plain)
		timed, err = tracedRun(b, name, seed, window/2, counts, vals)
		if err != nil {
			return nil, err
		}
		plainRate, _ := plain.rates()
		tracedRate, _ := timed.rates()
		vals["bench.trace_overhead_pct"] = (plainRate/tracedRate - 1) * 100
	}
	checks.mergeChecks(timed)

	if name == "overhead-batch" {
		renderTable2(out, b.(*overheadBatch).table2)
	} else {
		fmt.Fprintf(out, "model: %s has no hardware reference; its simulated numbers are unvalidated\n", name)
	}
	attempted, failed := checks.attempted, checks.failed
	fmt.Fprintf(out, "failed_ratio %g ratio (%d of %d operations)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	for _, n := range checks.notes {
		fmt.Fprintf(out, "failure: %s\n", n)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := vals[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "%-30s %14.6g %s\n", d.name, v, d.unit)
	}
	return res, nil
}

// Set-up can take well under a microsecond, so one sample repeats it for
// setupSample and reports the mean. The collector is paused while a sample
// runs: with a heap of a few MB it would otherwise run many times a sample,
// at a cost that varies more between processes than set-up itself. A
// sample stops early once its garbage reaches setupGarbage.
const (
	setupSample  = 10 * time.Millisecond
	setupGarbage = 32 << 20
)

// timeSetup runs the workload's set-up in setupRepeats samples and returns
// the median seconds per set-up.
func timeSetup(b bench, seed uint64) (float64, error) {
	// ReadMemStats stops the world, but set-up is not timed yet, and unlike
	// runtime/metrics it counts the small allocations cached per processor.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := b.setup(seed); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	maxN := int(setupGarbage / max(after.TotalAlloc-before.TotalAlloc, 1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var samples []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		n := 0
		t0 := time.Now()
		for ; n == 0 || (n < maxN && time.Since(t0) < setupSample); n++ {
			if err := b.setup(seed); err != nil {
				return 0, err
			}
		}
		samples = append(samples, time.Since(t0).Seconds()/float64(n))
	}
	return median(samples), nil
}

// tracedRun runs the traced half-window with spans and under a CPU profile,
// and fills the per-layer values, taking the per-run telemetry counts from
// counts.
func tracedRun(b bench, name string, seed uint64, window time.Duration, counts *tracer, vals map[string]float64) (*tally, error) {
	tr := newTracer(false)
	var prof bytes.Buffer
	before := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	t := b.run(time.Now().Add(window), tr)
	pprof.StopCPUProfile()
	after := readRuntime()

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares := layerShares(samples)
	for _, l := range append(layers, "runtime") {
		vals[l+".cpu_share"] = shares[l]
	}
	vals["cpu.bracket_cpu_share"] = shares["bracket"]

	if runs := float64(t.runs); runs > 0 {
		vals["runtime.alloc_mb_per_run"] = float64(after.allocBytes-before.allocBytes) / (1 << 20) / runs
		vals["model.sim_s_per_run"] = float64(t.simNs) / 1e9 / runs
	}
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		vals["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / cpu
	}
	if n := float64(counts.sinkRuns); n > 0 {
		reg := counts.sink.Registry()
		var syscalls uint64
		for _, l := range reg.Syscalls.Labels() {
			syscalls += reg.Syscalls.Get(l)
		}
		vals["kernel.ctx_switches_per_run"] = float64(reg.CtxSwitches.Value()) / n
		vals["kernel.timer_fires_per_run"] = float64(reg.TimerFires.Value()) / n
		vals["kernel.syscalls_per_run"] = float64(syscalls) / n
		vals["pmu.pmis_per_run"] = float64(reg.PMIs.Value()) / n
		vals["kleb.samples_per_run"] = float64(reg.Samples.Value()) / n
		vals["kleb.ring_drained_per_run"] = float64(reg.RingDrained.Value()) / n
		vals["kleb.ring_pauses_per_run"] = float64(reg.RingPauses.Value()) / n
	}
	vals["workload.compile_ms"] = tr.medianMs("session.NewTarget")
	vals["session.boot_ms"] = tr.medianMs("session.Boot")
	vals["session.attach_ms"] = tr.medianMs("session.Attach")
	vals["session.drive_ms"] = tr.medianMs("session.Drive")
	vals["session.drain_ms"] = tr.medianMs("session.Drain")
	vals["session.queue_wait_ms"] = quantileMs(&tr.queueWait, 0.5)
	if tr.capacity > 0 {
		vals["session.worker_busy_ratio"] = float64(tr.busy) / float64(tr.capacity)
	}
	vals["fleet.snapshot_ms"] = tr.medianMs("fleet.Snapshot")
	vals["telemetry.prom_encode_ms"] = tr.medianMs("telemetry.Snapshot.WritePrometheus")
	for k, v := range t.layer {
		vals[k] = v
	}
	if err := tr.write(".bench_build/perfbench-trace", fmt.Sprintf("%s-seed%d.json", name, seed)); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return t, nil
}

// writeReference runs one batch of the named workload at the reference seed
// and records its run digests in file, keeping the other workloads'.
func writeReference(file, name string) error {
	refs := reference{}
	if data, err := os.ReadFile(file); err == nil {
		if err := json.Unmarshal(data, &refs); err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
	}
	b, err := newBench(name, nil)
	if err != nil {
		return err
	}
	if err := b.setup(referenceSeed); err != nil {
		return err
	}
	t := b.run(time.Now(), nil)
	if t.failed > 0 {
		return fmt.Errorf("reference batch failed: %v", t.notes)
	}
	refs[name] = t.digests
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(file, append(data, '\n'), 0o644)
}
