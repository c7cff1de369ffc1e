package analysis_test

import (
	"testing"

	"kleb/internal/analysis"
	"kleb/internal/analysis/analysistest"
)

// Each analyzer runs over its golden package under testdata/src, which
// holds at least one positive case (a // want expectation) and one
// allowlisted negative case per rule. The maporder package reproduces
// the PR 2 fireDue bug shape verbatim.

func TestWalltime(t *testing.T) {
	analysistest.Run(t, analysis.Walltime, "walltime")
}

func TestSeededRand(t *testing.T) {
	analysistest.Run(t, analysis.SeededRand, "seededrand")
}

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, analysis.MapOrder, "maporder")
}

func TestEmitGuard(t *testing.T) {
	analysistest.Run(t, analysis.EmitGuard, "emitguard")
}

func TestLockDiscipline(t *testing.T) {
	analysistest.Run(t, analysis.LockDiscipline, "lockdiscipline")
}

func TestDroppedErr(t *testing.T) {
	analysistest.Run(t, analysis.DroppedErr, "droppederr")
}

func TestHTTPGuard(t *testing.T) {
	analysistest.Run(t, analysis.HTTPGuard, "httpguard")
}

// TestAllAndByName: the suite is complete and every analyzer answers to a
// unique name, which is how klebvet selects one.
func TestAllAndByName(t *testing.T) {
	all := analysis.All()
	if len(all) != 10 {
		t.Fatalf("All() returned %d analyzers, want 10", len(all))
	}
	seen := make(map[string]bool)
	for _, a := range all {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v is missing Name or Doc", a)
		}
		if (a.Run == nil) == (a.RunProgram == nil) {
			t.Errorf("analyzer %q must set exactly one of Run and RunProgram", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
