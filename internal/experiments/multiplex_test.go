package experiments

import "testing"

// TestMultiplexCheck asserts the sweep's own gate holds: under-budget mixes
// exact, oversubscribed mixes rotated and measurably scaled.
func TestMultiplexCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("full matmul sweep in -short mode")
	}
	res, err := RunMultiplex(Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	var sawOver bool
	for _, row := range res.Rows {
		if row.N > 4 {
			sawOver = true
			if row.MaxAbsErrPct() == 0 {
				t.Errorf("mix of %d: no estimation error on an oversubscribed mix", row.N)
			}
		}
	}
	if !sawOver {
		t.Fatal("default sweep has no oversubscribed mix")
	}
}
