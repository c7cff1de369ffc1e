package workload

import (
	"fmt"
	"testing"

	"kleb/internal/allocs"
	"kleb/internal/ktime"
	"kleb/internal/machine"
)

// TestScriptProgramStepNoAlloc is the workload side of the kernel's
// zero-allocation gate: real compiled Synthetic scripts on the Nehalem
// profile, two of them sharing the core so every timeslice ends a batch and
// goes through a real Next call, must run warm 1 ms RunUntil steps without
// allocating. ScriptProgram.Next hands the kernel a pointer into its own
// compiled stream, so emitting a block boxes nothing.
func TestScriptProgramStepNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	m := machine.Boot(machine.Nehalem(), 1)
	k := m.Kernel()
	for i, s := range []Synthetic{
		{Name: "stream", TotalInstr: 50_000_000_000, BlockInstr: 100_000, Footprint: 256 << 10},
		{Name: "random", TotalInstr: 50_000_000_000, BlockInstr: 40_000, Footprint: 2 << 20, RandomFrac: 0.2},
	} {
		k.Spawn(fmt.Sprintf("%s%d", s.Name, i), s.Script().Program())
	}
	cursor := ktime.Time(0)
	step := func() {
		cursor = cursor.Add(ktime.Millisecond)
		if err := k.RunUntil(cursor); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: the first steps grow the pending queues, the event heap and
	// the cost memo's tables.
	for i := 0; i < 50; i++ {
		step()
	}
	// The window runs once and a single allocation the program makes in it
	// fails; the Go runtime's own allocations do not count (allocs.Count).
	const steps = 10
	window := func() {
		for i := 0; i < steps; i++ {
			step()
		}
	}
	if n, where := allocs.Count(window); n != 0 {
		t.Errorf("%d RunUntil steps allocate %d times in total, want 0:\n%s", steps, n, where)
	}
	if k.Idle() {
		t.Fatal("the scripts finished inside the window; the window measured nothing")
	}
}

// TestServeAdmitAllocatesThree pins what admitting a serve request
// allocates: a fresh request is the struct and one backing slice each for
// its clone demands and its replica permutations, however many tiers the
// model has; a request admitted after others completed reuses one of
// them and allocates nothing.
func TestServeAdmitAllocatesThree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	const n = 100
	s := newServeSim(NewServe(), 1)
	if len(s.tiers) < 2 {
		t.Fatalf("the default serve model has %d tiers; the test needs several", len(s.tiers))
	}
	// Reserve every replica's queue so dispatch's appends never grow it.
	for i := range s.tiers {
		for r := range s.tiers[i].replicas {
			s.tiers[i].replicas[r].jobs = make([]psJob, 0, 4*n)
		}
	}
	admit := func() {
		for i := 0; i < n; i++ {
			s.admit(s.lastCk)
		}
	}
	if got, where := allocs.Count(admit); got != 3*n {
		t.Errorf("%d fresh admissions allocate %d times, want %d:\n%s", n, got, 3*n, where)
	}
	// One window at ample capacity completes every admitted request.
	s.window(s.lastCk.Add(ktime.Second), 1<<40)
	if s.inflight != 0 || s.stats.Completed != n {
		t.Fatalf("%d requests in flight and %d completed after the window; want 0 and %d", s.inflight, s.stats.Completed, n)
	}
	if got, where := allocs.Count(admit); got != 0 {
		t.Errorf("%d admissions after %d completions allocate %d times, want 0:\n%s", n, n, got, where)
	}
}
