package kernel

import (
	"fmt"
	"math"
	"testing"

	"kleb/internal/allocs"
	"kleb/internal/isa"
	"kleb/internal/ktime"
	"kleb/internal/pmu"
)

// Micro-benchmarks for the scheduler's hot path. scripts/bench_kernel.sh
// runs them against the base commit in alternating pairs and fails on a
// regression; BENCH_kernel.json records their medians. The sleeper
// storm is the headline number (it is the shape that made table2
// O(P)-scan-bound before the unified event queue), the timer churn
// benchmark prices one full arm→fire→re-arm cycle, and the HF sample
// prices what K-LEB's case rests on: one 100µs sample.

// benchSleepers is the storm width: large enough that a per-event O(P)
// process scan dominates, small enough that the run queue stays realistic.
const benchSleepers = 64

// BenchmarkSleeperStorm drives benchSleepers processes through repeated
// 100µs HR sleeps; one op is one sleep→wake cycle. Every wakeup is a
// kernel event, so ns/op prices the nextEvent/fireDue path.
func BenchmarkSleeperStorm(b *testing.B) {
	k := testKernel(1)
	iters := b.N/benchSleepers + 1
	var sleep Op = OpSleep{D: 100 * ktime.Microsecond, HR: true} // preboxed: measure the kernel, not the program
	for i := 0; i < benchSleepers; i++ {
		count := 0
		k.Spawn(fmt.Sprintf("sleeper%02d", i), ProgramFunc(func(k *Kernel, p *Process) Op {
			count++
			if count > iters {
				return OpExit{}
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

// BenchmarkTimerChurn prices the HR timer arm→fire→re-arm cycle with eight
// periodic timers live (the K-LEB + perf-mux shape); one op is one firing.
func BenchmarkTimerChurn(b *testing.B) {
	k := testKernel(2)
	fired := 0
	for i := 0; i < 8; i++ {
		k.StartHRTimer(10*ktime.Microsecond, 100*ktime.Microsecond, func(k *Kernel, t *HRTimer) bool {
			fired++
			return fired < b.N
		})
	}
	k.Spawn("spin", ProgramFunc(func(k *Kernel, p *Process) Op {
		if fired >= b.N {
			return OpExit{}
		}
		return execBlock(workBlock(50_000))
	}))
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSteadyRunCurrent measures the pure execute loop: one process,
// no timers, no sleepers; one op is one instruction block through
// runCurrent/applyWork. The steady state must not allocate.
func BenchmarkSteadyRunCurrent(b *testing.B) {
	k := testKernel(3)
	n := 0
	var op Op = execBlock(workBlock(10_000))
	k.Spawn("spin", ProgramFunc(func(k *Kernel, p *Process) Op {
		n++
		if n > b.N {
			return OpExit{}
		}
		return op
	}))
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcessTable prices one pid-ordered walk of a 384-entry process
// table, 256 exited and 128 live — the shape doExit's waiter scan and the
// Processes snapshot share since the table moved from a map to the
// pid-ascending byPID slice.
func BenchmarkProcessTable(b *testing.B) {
	k := testKernel(5)
	for i := 0; i < 256; i++ {
		k.Spawn(fmt.Sprintf("done%03d", i), burner(0, 0))
	}
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		k.Spawn(fmt.Sprintf("live%03d", i), burner(1, 1_000))
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

// benchStream is the smallest possible BlockStream program: it emits `left`
// copies of one block, announcing the remaining run length so executeRun
// can batch stable memo replays exactly as a compiled workload phase does.
type benchStream struct {
	block isa.Block
	left  uint64
}

func (s *benchStream) Next(k *Kernel, p *Process) Op {
	if s.left == 0 {
		return OpExit{}
	}
	s.left--
	return OpExec{Block: &s.block}
}

func (s *benchStream) PeekRun() (isa.Block, uint64) { return s.block, s.left }
func (s *benchStream) ConsumeRun(n uint64)          { s.left -= n }

// BenchmarkBlockExecute prices one block through the batched compiled-stream
// path: a BlockStream program whose blocks freeze into stable memo replays,
// so executeRun collapses whole timeslices into single priced units. One op
// is one block; ns/op is the amortized per-block cost the table2 win rests
// on (compare BenchmarkSteadyRunCurrent, the same shape unbatched).
func BenchmarkBlockExecute(b *testing.B) {
	k := testKernel(6)
	k.Spawn("stream", &benchStream{block: workBlock(10_000), left: uint64(b.N)})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
}

// phaseStream cycles through a block mix in runs of runLen, the shape of a
// compiled multi-phase workload: batching works within a run, and every run
// boundary forces a real Next call and (on the first visits) a memo measure.
type phaseStream struct {
	blocks []isa.Block
	runLen uint64
	total  uint64 // blocks still to emit overall
	left   uint64 // copies of blocks[bi] still to emit
	bi     int
}

func (s *phaseStream) Next(k *Kernel, p *Process) Op {
	if s.total == 0 {
		return OpExit{}
	}
	if s.left == 0 {
		s.bi = (s.bi + 1) % len(s.blocks)
		s.left = s.runLen
	}
	s.left--
	s.total--
	return OpExec{Block: &s.blocks[s.bi]}
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

// BenchmarkSteadyPhase prices the compiled execution of a steady phase with
// a realistic block mix: compute-bound, memory-bound and branchy blocks
// alternating in runs of 64, so the figure blends stable replays with the
// run-boundary Next calls and warmth-class re-probes a real phase incurs.
func BenchmarkSteadyPhase(b *testing.B) {
	compute := workBlock(10_000)
	memory := workBlock(10_000)
	memory.Loads = 5_000
	memory.Mem = isa.MemPattern{Base: 0xB000_0000, Footprint: 8 << 20, Stride: 64, RandomFrac: 1}
	branchy := workBlock(10_000)
	branchy.Branches = 2_000
	k := testKernel(7)
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

// BenchmarkHFSample prices one sampling period of K-LEB at the paper's
// 100µs on DefaultCosts, noise on. Four programmable counters and one fixed
// counter count user work only, as in the overhead study; the timer handler
// reads the five of them, paying MSRAccess each, then charges the 300ns
// store into the sample buffer. The target's blocks run for several
// periods, so every fire cuts the block in flight.
func BenchmarkHFSample(b *testing.B) {
	k := New(testCPU(9), DefaultCosts(), ktime.NewRand(9), Options{})
	pm := k.Core().PMU()
	for _, w := range []struct {
		msr uint32
		val uint64
	}{
		{pmu.MSRPerfEvtSel0, pmu.Encoding{EventSel: 0x0B, Umask: 0x01}.Sel(pmu.SelUsr | pmu.SelEn)},
		{pmu.MSRPerfEvtSel0 + 1, pmu.Encoding{EventSel: 0x0B, Umask: 0x02}.Sel(pmu.SelUsr | pmu.SelEn)},
		{pmu.MSRPerfEvtSel0 + 2, pmu.Encoding{EventSel: 0x2E, Umask: 0x4F}.Sel(pmu.SelUsr | pmu.SelEn)},
		{pmu.MSRPerfEvtSel0 + 3, pmu.Encoding{EventSel: 0x2E, Umask: 0x41}.Sel(pmu.SelUsr | pmu.SelEn)},
		{pmu.MSRFixedCtrCtrl, pmu.FixedUsr},
		{pmu.MSRGlobalCtrl, 0b1111 | 1<<32},
	} {
		if err := pm.WriteMSR(w.msr, w.val); err != nil {
			b.Fatal(err)
		}
	}
	reads := [...]uint32{pmu.MSRPmc0, pmu.MSRPmc0 + 1, pmu.MSRPmc0 + 2, pmu.MSRPmc0 + 3, pmu.MSRFixedCtr0}
	msr := k.Costs().MSRAccess
	fired := 0
	k.StartHRTimer(100*ktime.Microsecond, 100*ktime.Microsecond, func(k *Kernel, t *HRTimer) bool {
		for _, addr := range reads {
			k.ChargeKernel(msr)
			if _, err := pm.ReadMSR(addr); err != nil {
				b.Fatal(err)
			}
		}
		k.ChargeKernel(300 * ktime.Nanosecond)
		fired++
		return fired < b.N
	})
	var op Op = execBlock(workBlock(10_000_000))
	k.Spawn("target", ProgramFunc(func(k *Kernel, p *Process) Op {
		if fired >= b.N {
			return OpExit{}
		}
		return op
	}))
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
}

// TestSteadyRunCurrentNoAlloc is the hard zero-allocation gate on the
// scheduler's steady states: once warm, one RunUntil step must not
// allocate in the execute loop, in a storm of HR-sleep wakeups, or on the
// batched compiled-stream path. (Skipped under the race detector, which
// instruments allocations.)
func TestSteadyRunCurrentNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	block := workBlock(10_000)
	var sleep Op = OpSleep{D: 100 * ktime.Microsecond, HR: true}
	sleepers := make([]Program, benchSleepers)
	for i := range sleepers {
		sleepers[i] = ProgramFunc(func(k *Kernel, p *Process) Op { return sleep })
	}
	for _, tc := range []struct {
		name  string
		progs []Program
	}{
		// An OpExec carries its block by pointer, so building one per Next
		// call allocates nothing.
		{"steady", []Program{ProgramFunc(func(k *Kernel, p *Process) Op { return OpExec{Block: &block} })}},
		{"sleepers", sleepers},
		{"batched", []Program{&benchStream{block: workBlock(10_000), left: math.MaxUint64}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := testKernel(4)
			for i, prog := range tc.progs {
				k.Spawn(fmt.Sprintf("%s%02d", tc.name, i), prog)
			}
			cursor := ktime.Time(0)
			step := func() {
				cursor = cursor.Add(ktime.Millisecond)
				if err := k.RunUntil(cursor); err != nil {
					t.Fatal(err)
				}
			}
			step() // warm up: first blocks grow the pending queue, event heap and cache cursors
			// The window runs once and a single allocation the program makes
			// in it fails; the Go runtime's own allocations do not count
			// (allocs.Count).
			const steps = 10
			window := func() {
				for i := 0; i < steps; i++ {
					step()
				}
			}
			if n, where := allocs.Count(window); n != 0 {
				t.Errorf("%d RunUntil steps allocate %d times in total, want 0:\n%s", steps, n, where)
			}
		})
	}
}
