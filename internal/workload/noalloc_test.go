package workload

import (
	"fmt"
	"testing"

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
	// AllocsPerRun truncates its per-run mean to an integer, so the whole
	// window is one run: a single allocation in it fails.
	const steps = 10
	window := func() {
		for i := 0; i < steps; i++ {
			step()
		}
	}
	if n := testing.AllocsPerRun(1, window); n != 0 {
		t.Errorf("%d RunUntil steps allocate %v times in total, want 0", steps, n)
	}
	if k.Idle() {
		t.Fatal("the scripts finished inside the window; the window measured nothing")
	}
}

// TestServeAdmitAllocatesThree pins what admitting a serve request
// allocates: the request and one backing slice each for its clone demands
// and its replica permutations, however many tiers the model has.
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
	// AllocsPerRun truncates its per-run mean to an integer, so the n
	// admissions are one run.
	admit := func() {
		for i := 0; i < n; i++ {
			s.admit(ktime.Time(i))
		}
	}
	if got := testing.AllocsPerRun(1, admit); got != 3*n {
		t.Errorf("%d admissions allocate %v times, want %d", n, got, 3*n)
	}
}
