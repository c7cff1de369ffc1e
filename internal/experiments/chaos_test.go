package experiments

import (
	"reflect"
	"testing"
)

// TestChaosInvariant is the fault layer's core proof: across seeded fault
// plans every run terminates and conserves its sampling periods.
func TestChaosInvariant(t *testing.T) {
	res, err := RunChaos(Params{Seed: 1, Trials: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	// The sweep must actually exercise the fault paths, not pass vacuously:
	// across 8 plans at least one run loses periods to faults and at least
	// one degrades.
	lost, degraded := uint64(0), 0
	for _, row := range res.Rows {
		lost += row.LostFault
		if row.Degraded {
			degraded++
		}
	}
	if lost == 0 {
		t.Error("no run lost a single period to faults — plans not injecting")
	}
	if degraded == 0 {
		t.Error("no run degraded — hard-fault paths not exercised")
	}
}

// TestChaosDeterministicAcrossWorkers locks the sweep's scheduling
// independence: per-run fault plans and seeds are private, so the rows must
// be bit-identical at any worker count.
func TestChaosDeterministicAcrossWorkers(t *testing.T) {
	sweep := func(workers int) []ChaosRow {
		res, err := RunChaos(Params{Seed: 1, Trials: 6, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows
	}
	one := sweep(1)
	for _, workers := range []int{2, 8} {
		if got := sweep(workers); !reflect.DeepEqual(one, got) {
			t.Errorf("sweep diverged between 1 and %d workers:\n1: %+v\n%d: %+v",
				workers, one, workers, got)
		}
	}
}
