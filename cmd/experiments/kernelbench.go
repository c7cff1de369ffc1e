package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"kleb/internal/cache"
	"kleb/internal/cpu"
	"kleb/internal/experiments"
	"kleb/internal/isa"
	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/pmu"
)

// This file implements the kernel-bench pseudo-command: the regression
// gate on the scheduler's event-driven fast path. It re-measures the same
// shapes as the internal/kernel micro-benchmarks (sleeper storm, steady
// execute loop, timer churn) through the public kernel API, adds the PMU
// counter feed, the process-table walk, the cost memo's bracketed
// measurement and one cache-hierarchy access, and times a scaled-down
// table2 end to end.
// scripts/bench_kernel.sh drives it in CI against the committed
// BENCH_kernel.json the same way the telemetry-bench 25 ns/op bound is
// enforced.

// kernelRegressionBoundPct is how much any ns/op figure may exceed its
// committed baseline before the gate fails. 25% absorbs shared-runner
// noise on sub-microsecond benchmarks while still catching a reintroduced
// O(P) scan or per-event allocation, which cost integer multiples.
const kernelRegressionBoundPct = 25.0

// kernelBench is the BENCH_kernel.json shape. The ns/op fields are gated
// against the committed baseline; the wall-clock field is informational
// (host-dependent) and the allocs fields are hard zero gates.
type kernelBench struct {
	// One sleep→wake cycle across 64 sleeping processes: the unified
	// event queue's headline number (O(P) scans made this the table2
	// bottleneck before the event heap).
	SleeperStormNsPerOp     float64 `json:"sleeper_storm_ns_per_op"`
	SleeperStormAllocsPerOp float64 `json:"sleeper_storm_allocs_per_op"`
	// One instruction block through the steady-state execute loop; must
	// not allocate at all.
	SteadyNsPerOp     float64 `json:"steady_ns_per_op"`
	SteadyAllocsPerOp float64 `json:"steady_allocs_per_op"`
	// One HR timer arm→fire→re-arm cycle with eight periodic timers live.
	TimerChurnNsPerOp float64 `json:"timer_churn_ns_per_op"`
	// One AddCounts call with two programmable plus one fixed counter
	// active (the K-LEB monitoring shape) through the active-mask cache.
	CounterFeedNsPerOp float64 `json:"counter_feed_ns_per_op"`
	// One pid-ordered walk of a 384-entry process table (the doExit
	// waiter scan and the Processes snapshot both take this shape).
	ProcTableNsPerOp float64 `json:"proc_table_ns_per_op"`
	// One block through the batched compiled-stream path (a BlockStream
	// whose stable memo replays collapse into run-length priced units) —
	// the amortized per-block cost the table2 win rests on. Must not
	// allocate.
	BlockExecuteNsPerOp     float64 `json:"block_execute_ns_per_op"`
	BlockExecuteAllocsPerOp float64 `json:"block_execute_allocs_per_op"`
	// One block of a steady phase mixing compute, memory and branchy
	// blocks in runs of 64: blends stable replays with the run-boundary
	// Next calls and memo re-probes a real compiled phase incurs.
	SteadyPhaseNsPerOp float64 `json:"steady_phase_ns_per_op"`
	// One canonical memo measurement on Nehalem geometry: the cache
	// Save/Restore bracket, the lazy footprint pre-warm and the probe
	// itself, for a block the memo has not seen.
	MemoMeasureNsPerOp float64 `json:"memo_measure_ns_per_op"`
	// One Hierarchy.Access on Nehalem geometry replaying Table II's
	// init-phase walk, where nearly every access misses all three levels:
	// the per-level lookup and LRU victim choice the raw model pays per
	// simulated touch.
	CacheAccessNsPerOp float64 `json:"cache_access_ns_per_op"`
	// Wall time of table2 scaled to 3 trials, serial. Gated at twice the
	// ns/op bound (wall clock on shared runners is noisier than
	// nanobenchmarks) so the batched-execution win stays locked in.
	Table2ScaledSeconds float64 `json:"table2_scaled_seconds"`
	RegressionBoundPct  float64 `json:"regression_bound_pct"`
}

// benchEventTable mirrors the kernel test rig's PMU event table.
func benchEventTable() *pmu.EventTable {
	return pmu.TableFromClasses("bench", map[pmu.Encoding]isa.Event{
		{EventSel: 0x2E, Umask: 0x41}: isa.EvLLCMisses,
		{EventSel: 0x2E, Umask: 0x4F}: isa.EvLLCRefs,
		{EventSel: 0x0B, Umask: 0x01}: isa.EvLoads,
		{EventSel: 0x0B, Umask: 0x02}: isa.EvStores,
	})
}

// benchKernel builds the same machine the internal/kernel benchmarks use:
// a 2 GHz core with a three-level hierarchy and a noise-free cost model,
// so ns/op figures are comparable between `go test -bench` and this gate.
func benchKernel(seed uint64) *kernel.Kernel {
	cfg := cpu.Config{
		Freq:              ktime.MHz(2000),
		BaseCPI:           0.5,
		BranchMissPenalty: 15,
		FlushCycles:       50,
		Hierarchy: cache.HierarchyConfig{
			L1D:              cache.Config{Name: "L1D", Size: 32 << 10, LineSize: 64, Ways: 8, LatencyCycles: 4},
			L2:               cache.Config{Name: "L2", Size: 256 << 10, LineSize: 64, Ways: 8, LatencyCycles: 10},
			LLC:              cache.Config{Name: "LLC", Size: 4 << 20, LineSize: 64, Ways: 16, LatencyCycles: 38},
			MemLatencyCycles: 200,
		},
		MaxSimAccesses: 256,
	}
	core := cpu.New(cfg, pmu.New(benchEventTable()), ktime.NewRand(seed))
	costs := kernel.DefaultCosts()
	costs.NoiseRel = 0
	costs.TimerJitterRel = 0
	costs.RunNoiseRel = 0
	return kernel.New(core, costs, ktime.NewRand(seed), kernel.Options{})
}

// benchBlock is the benchmarks' standard user instruction block.
func benchBlock(instr uint64) isa.Block {
	return isa.Block{
		Instr: instr, Loads: instr / 4, Stores: instr / 10, Branches: instr / 10,
		Mem:  isa.MemPattern{Base: 0xA000_0000, Footprint: 32 << 10, Stride: 8},
		Priv: isa.User,
	}
}

// benchSleeperStorm drives 64 processes through repeated 100µs HR sleeps;
// one op is one sleep→wake cycle.
func benchSleeperStorm(b *testing.B) {
	const sleepers = 64
	k := benchKernel(1)
	iters := b.N/sleepers + 1
	var sleep kernel.Op = kernel.OpSleep{D: 100 * ktime.Microsecond, HR: true}
	for i := 0; i < sleepers; i++ {
		count := 0
		k.Spawn(fmt.Sprintf("sleeper%02d", i), kernel.ProgramFunc(func(k *kernel.Kernel, p *kernel.Process) kernel.Op {
			count++
			if count > iters {
				return kernel.OpExit{}
			}
			return sleep
		}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
}

// benchSteady measures the pure execute loop: one compute-bound process,
// no timers, no sleepers.
func benchSteady(b *testing.B) {
	k := benchKernel(3)
	n := 0
	var op kernel.Op = kernel.OpExec{Block: benchBlock(10_000)}
	k.Spawn("spin", kernel.ProgramFunc(func(k *kernel.Kernel, p *kernel.Process) kernel.Op {
		n++
		if n > b.N {
			return kernel.OpExit{}
		}
		return op
	}))
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
}

// benchTimerChurn prices the HR timer arm→fire→re-arm cycle with eight
// periodic timers live; one op is one firing.
func benchTimerChurn(b *testing.B) {
	k := benchKernel(2)
	fired := 0
	for i := 0; i < 8; i++ {
		k.StartHRTimer(10*ktime.Microsecond, 100*ktime.Microsecond, func(k *kernel.Kernel, t *kernel.HRTimer) bool {
			fired++
			return fired < b.N
		})
	}
	k.Spawn("spin", kernel.ProgramFunc(func(k *kernel.Kernel, p *kernel.Process) kernel.Op {
		if fired >= b.N {
			return kernel.OpExit{}
		}
		return kernel.OpExec{Block: benchBlock(50_000)}
	}))
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
}

// benchStream is the smallest BlockStream program: it emits left copies of
// one block, announcing the remaining run length so the kernel's executeRun
// can batch stable memo replays (mirrors the internal/kernel bench rig).
type benchStream struct {
	block isa.Block
	left  uint64
}

func (s *benchStream) Next(k *kernel.Kernel, p *kernel.Process) kernel.Op {
	if s.left == 0 {
		return kernel.OpExit{}
	}
	s.left--
	return kernel.OpExec{Block: s.block}
}

func (s *benchStream) PeekRun() (isa.Block, uint64) { return s.block, s.left }
func (s *benchStream) ConsumeRun(n uint64)          { s.left -= n }

// benchBlockExecute prices one block through the batched compiled-stream
// path; one op is one block, amortized over run-length batches.
func benchBlockExecute(b *testing.B) {
	k := benchKernel(6)
	k.Spawn("stream", &benchStream{block: benchBlock(10_000), left: uint64(b.N)})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
}

// phaseStream cycles a block mix in runs of runLen — the shape of a
// compiled multi-phase workload.
type phaseStream struct {
	blocks []isa.Block
	runLen uint64
	total  uint64
	left   uint64
	bi     int
}

func (s *phaseStream) Next(k *kernel.Kernel, p *kernel.Process) kernel.Op {
	if s.total == 0 {
		return kernel.OpExit{}
	}
	if s.left == 0 {
		s.bi = (s.bi + 1) % len(s.blocks)
		s.left = s.runLen
	}
	s.left--
	s.total--
	return kernel.OpExec{Block: s.blocks[s.bi]}
}

func (s *phaseStream) PeekRun() (isa.Block, uint64) {
	n := s.left
	if n > s.total {
		n = s.total
	}
	return s.blocks[s.bi], n
}

func (s *phaseStream) ConsumeRun(n uint64) {
	s.left -= n
	s.total -= n
}

// benchSteadyPhase prices one block of a steady phase with a realistic mix:
// compute-bound, memory-bound and branchy blocks alternating in runs of 64.
func benchSteadyPhase(b *testing.B) {
	compute := benchBlock(10_000)
	memory := benchBlock(10_000)
	memory.Loads = 5_000
	memory.Mem = isa.MemPattern{Base: 0xB000_0000, Footprint: 8 << 20, Stride: 64, RandomFrac: 1}
	branchy := benchBlock(10_000)
	branchy.Branches = 2_000
	k := benchKernel(7)
	k.Spawn("phase", &phaseStream{
		blocks: []isa.Block{compute, memory, branchy},
		runLen: 64,
		total:  uint64(b.N),
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
}

// benchMemoMeasure prices the memo's bracketed measure path on Nehalem
// geometry: op i executes a block with a distinct instruction count, so
// every op is a memo miss, over a 4 MB footprint the 8 MB LLC pre-warms.
// One warm-up block sweeps the region twice first, which puts every later
// block in the steady warmth class where the memo measures canonically.
func benchMemoMeasure(b *testing.B) {
	core := cpu.New(machine.Nehalem().CPU, pmu.New(benchEventTable()), ktime.NewRand(8))
	mem := isa.MemPattern{Base: 0xC000_0000, Footprint: 4 << 20, Stride: 64}
	core.Execute(isa.Block{Instr: 1 << 20, Loads: 2 * mem.Footprint / mem.Stride, Mem: mem, Priv: isa.User})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Execute(isa.Block{Instr: 10_000 + uint64(i), Loads: 2_500, Mem: mem, Priv: isa.User})
	}
}

// benchCacheAccess prices one Hierarchy.Access on Nehalem geometry with
// the stream Table II's init phase feeds the caches: its 34.56 MB matmul
// footprint walked in the 2 KB steps the sampled walk takes, so nearly
// every access misses L1D, L2 and the LLC. One warm-up sweep first fills
// every set the walk reaches, which is the steady state a trial runs in.
func benchCacheAccess(b *testing.B) {
	const base, step, footprint = 0x2_0000_0000, 2 << 10, 3 * 1200 * 1200 * 8
	h := cache.NewHierarchy(machine.Nehalem().CPU.Hierarchy)
	for cur := uint64(0); cur < footprint; cur += step {
		h.Access(base + cur)
	}
	var cur uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(base + cur)
		cur = (cur + step) % footprint
	}
}

// benchCounterFeed prices one AddCounts with the K-LEB monitoring shape
// active: two programmable counters plus one fixed counter.
func benchCounterFeed(b *testing.B) {
	p := pmu.New(benchEventTable())
	for _, w := range []struct {
		msr uint32
		val uint64
	}{
		{pmu.MSRPerfEvtSel0, pmu.Encoding{EventSel: 0x2E, Umask: 0x41}.Sel(pmu.SelUsr | pmu.SelEn)},
		{pmu.MSRPerfEvtSel0 + 1, pmu.Encoding{EventSel: 0x0B, Umask: 0x01}.Sel(pmu.SelUsr | pmu.SelEn)},
		{pmu.MSRFixedCtrCtrl, pmu.FixedUsr},
		{pmu.MSRGlobalCtrl, 1 | 1<<1 | 1<<32},
	} {
		if err := p.WriteMSR(w.msr, w.val); err != nil {
			b.Fatal(err)
		}
	}
	var c isa.Counts
	c[isa.EvLLCMisses] = 17
	c[isa.EvLoads] = 250
	c[isa.EvInstructions] = 1000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AddCounts(c, isa.User)
	}
}

// benchProcTable prices one pid-ordered walk of a 384-entry process table,
// 256 exited and 128 live — the shape doExit's waiter scan and the
// Processes snapshot share.
func benchProcTable(b *testing.B) {
	k := benchKernel(4)
	for i := 0; i < 256; i++ {
		k.Spawn(fmt.Sprintf("done%03d", i), kernel.ProgramFunc(func(k *kernel.Kernel, p *kernel.Process) kernel.Op {
			return kernel.OpExit{}
		}))
	}
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		k.Spawn(fmt.Sprintf("live%03d", i), kernel.ProgramFunc(func(k *kernel.Kernel, p *kernel.Process) kernel.Op {
			return kernel.OpExit{}
		}))
	}
	exited := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exited = 0
		for _, p := range k.Processes() {
			if p.Exited() {
				exited++
			}
		}
	}
	if exited != 256 {
		b.Fatalf("exited = %d, want 256", exited)
	}
}

// runBench runs fn under the testing harness and returns its result, or an
// error if the benchmark body failed. It keeps the fastest of three runs:
// the batched fast path prices in hundreds of nanoseconds or less, where a
// single descheduling on a shared runner shows up as a double-digit
// percentage — the minimum is the stable estimate of the code's true cost.
func runBench(name string, fn func(b *testing.B)) (testing.BenchmarkResult, error) {
	var res testing.BenchmarkResult
	for try := 0; try < 3; try++ {
		r := testing.Benchmark(fn)
		if try == 0 || (r.N > 0 && r.NsPerOp() < res.NsPerOp()) {
			res = r
		}
	}
	if res.N == 0 {
		return res, fmt.Errorf("benchmark %s failed", name)
	}
	fmt.Fprintf(os.Stderr, "kernel-bench %-14s %10.1f ns/op  %d allocs/op\n",
		name, float64(res.NsPerOp()), res.AllocsPerOp())
	return res, nil
}

// writeKernelBench measures the scheduler fast path, writes the numbers to
// path as JSON, and fails on any steady-state allocation or — when
// basePath names a committed baseline — on a >25% ns/op regression.
func writeKernelBench(path, basePath string, seed uint64) error {
	if path == "" {
		path = "BENCH_kernel.json"
	}
	var bench kernelBench
	bench.RegressionBoundPct = kernelRegressionBoundPct

	storm, err := runBench("sleeper-storm", benchSleeperStorm)
	if err != nil {
		return err
	}
	bench.SleeperStormNsPerOp = float64(storm.NsPerOp())
	bench.SleeperStormAllocsPerOp = float64(storm.AllocsPerOp())
	steady, err := runBench("steady", benchSteady)
	if err != nil {
		return err
	}
	bench.SteadyNsPerOp = float64(steady.NsPerOp())
	bench.SteadyAllocsPerOp = float64(steady.AllocsPerOp())
	churn, err := runBench("timer-churn", benchTimerChurn)
	if err != nil {
		return err
	}
	bench.TimerChurnNsPerOp = float64(churn.NsPerOp())
	feed, err := runBench("counter-feed", benchCounterFeed)
	if err != nil {
		return err
	}
	bench.CounterFeedNsPerOp = float64(feed.NsPerOp())
	table, err := runBench("proc-table", benchProcTable)
	if err != nil {
		return err
	}
	bench.ProcTableNsPerOp = float64(table.NsPerOp())
	blockExec, err := runBench("block-execute", benchBlockExecute)
	if err != nil {
		return err
	}
	// Batched replays amortize to under a nanosecond per block; keep the
	// fractional part or the figure would round to 0 and escape the gate.
	bench.BlockExecuteNsPerOp = float64(blockExec.T.Nanoseconds()) / float64(blockExec.N)
	bench.BlockExecuteAllocsPerOp = float64(blockExec.AllocsPerOp())
	phase, err := runBench("steady-phase", benchSteadyPhase)
	if err != nil {
		return err
	}
	bench.SteadyPhaseNsPerOp = float64(phase.NsPerOp())
	memo, err := runBench("memo-measure", benchMemoMeasure)
	if err != nil {
		return err
	}
	bench.MemoMeasureNsPerOp = float64(memo.NsPerOp())
	access, err := runBench("cache-access", benchCacheAccess)
	if err != nil {
		return err
	}
	// Tens of nanoseconds: keep the fractional part, as for block-execute.
	bench.CacheAccessNsPerOp = float64(access.T.Nanoseconds()) / float64(access.N)

	table2, ok := experiments.Lookup("table2")
	if !ok {
		return fmt.Errorf("no table2 experiment")
	}
	t0 := time.Now() //klebvet:allow walltime -- host-side benchmark harness timing
	if err := table2.Render(experiments.Params{Seed: seed, Trials: 3, Workers: 1}, io.Discard); err != nil {
		return err
	}
	bench.Table2ScaledSeconds = time.Since(t0).Seconds() //klebvet:allow walltime -- host-side benchmark harness timing
	fmt.Fprintf(os.Stderr, "kernel-bench table2(3 trials) %.2fs serial\n", bench.Table2ScaledSeconds)

	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("kernel bench: sleeper storm %.1f ns/op (%.0f allocs), steady %.1f ns/op (%.0f allocs), wrote %s\n",
		bench.SleeperStormNsPerOp, bench.SleeperStormAllocsPerOp,
		bench.SteadyNsPerOp, bench.SteadyAllocsPerOp, path)

	// Hard gates, baseline or not: the fast path must not allocate.
	if bench.SleeperStormAllocsPerOp != 0 || bench.SteadyAllocsPerOp != 0 || bench.BlockExecuteAllocsPerOp != 0 {
		return fmt.Errorf("scheduler fast path allocates (sleeper storm %.0f, steady %.0f, block execute %.0f allocs/op), want 0",
			bench.SleeperStormAllocsPerOp, bench.SteadyAllocsPerOp, bench.BlockExecuteAllocsPerOp)
	}
	if basePath == "" {
		return nil
	}
	return compareKernelBench(bench, basePath)
}

// compareKernelBench fails if any gated ns/op figure exceeds the committed
// baseline by more than the baseline's regression bound.
func compareKernelBench(bench kernelBench, basePath string) error {
	data, err := os.ReadFile(basePath)
	if err != nil {
		return err
	}
	var base kernelBench
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %v", basePath, err)
	}
	bound := base.RegressionBoundPct
	if bound <= 0 {
		bound = kernelRegressionBoundPct
	}
	gated := []struct {
		name      string
		got, base float64
		bound     float64
	}{
		{"sleeper_storm_ns_per_op", bench.SleeperStormNsPerOp, base.SleeperStormNsPerOp, bound},
		{"steady_ns_per_op", bench.SteadyNsPerOp, base.SteadyNsPerOp, bound},
		{"timer_churn_ns_per_op", bench.TimerChurnNsPerOp, base.TimerChurnNsPerOp, bound},
		{"counter_feed_ns_per_op", bench.CounterFeedNsPerOp, base.CounterFeedNsPerOp, bound},
		{"proc_table_ns_per_op", bench.ProcTableNsPerOp, base.ProcTableNsPerOp, bound},
		{"block_execute_ns_per_op", bench.BlockExecuteNsPerOp, base.BlockExecuteNsPerOp, bound},
		{"steady_phase_ns_per_op", bench.SteadyPhaseNsPerOp, base.SteadyPhaseNsPerOp, bound},
		{"memo_measure_ns_per_op", bench.MemoMeasureNsPerOp, base.MemoMeasureNsPerOp, bound},
		{"cache_access_ns_per_op", bench.CacheAccessNsPerOp, base.CacheAccessNsPerOp, bound},
		// The table2 ratchet: end-to-end wall clock is noisier than a
		// nanobenchmark, so it gets twice the bound — still tight enough
		// that losing the batched-execution win (a >4× slowdown) fails.
		{"table2_scaled_seconds", bench.Table2ScaledSeconds, base.Table2ScaledSeconds, 2 * bound},
	}
	var failed []string
	for _, g := range gated {
		if g.base <= 0 {
			continue // baseline predates this metric
		}
		limit := g.base * (1 + g.bound/100)
		pct := (g.got - g.base) / g.base * 100
		fmt.Fprintf(os.Stderr, "kernel-bench gate %-26s %10.1f vs baseline %10.1f (%+.1f%%, bound +%.0f%%)\n",
			g.name, g.got, g.base, pct, g.bound)
		if g.got > limit {
			failed = append(failed, fmt.Sprintf("%s regressed %.1f%% (%.1f -> %.1f)",
				g.name, pct, g.base, g.got))
		}
	}
	if len(failed) > 0 {
		for _, f := range failed {
			fmt.Fprintln(os.Stderr, "kernel-bench FAIL:", f)
		}
		return fmt.Errorf("%d benchmark(s) regressed beyond the %.0f%% bound vs %s", len(failed), bound, basePath)
	}
	return nil
}
