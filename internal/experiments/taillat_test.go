package experiments

import "testing"

// TestTailLatCheck asserts the study's own gate holds on the default
// configuration: requests conserved, nothing rejected, and K-LEB's p99
// inflation strictly below perf stat's and PAPI's in both scenarios.
func TestTailLatCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("full serve study in -short mode")
	}
	res, err := RunTailLat(Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 2 {
		t.Fatalf("scenarios = %d, want open- and closed-loop", len(res.Scenarios))
	}
	for _, sc := range res.Scenarios {
		kleb, ok := sc.row("kleb")
		if !ok {
			t.Fatalf("%s: no kleb row", sc.Name)
		}
		if kleb.DeltaP99 <= 0 {
			t.Errorf("%s: K-LEB Δp99 = %dns, want positive (monitoring is never free)", sc.Name, kleb.DeltaP99)
		}
		bare, ok := sc.row("bare")
		if !ok || bare.Completed == 0 {
			t.Fatalf("%s: missing or empty bare baseline", sc.Name)
		}
	}
}
