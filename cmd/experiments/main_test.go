package main

import (
	"strings"
	"testing"

	"kleb/internal/experiments"
)

func TestDispatchRejectsUnknownExperiment(t *testing.T) {
	err := dispatch("fig99", experiments.Params{Seed: 1}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("got %v", err)
	}
}

// TestAllRunsEachNonGateEntryOnce: `all` names every registry entry that
// is not a gate exactly once, so no artifact is printed twice.
func TestAllRunsEachNonGateEntryOnce(t *testing.T) {
	runs := map[string]int{}
	for _, name := range allNames() {
		a, ok := experiments.Lookup(name)
		if !ok {
			t.Fatalf("all names %q, which Lookup does not know", name)
		}
		runs[a.Names[0]]++
	}
	for _, a := range experiments.Registry() {
		want := 1
		if a.Gate {
			want = 0
		}
		if runs[a.Names[0]] != want {
			t.Errorf("all runs %s %d times, want %d", a.Names[0], runs[a.Names[0]], want)
		}
	}
}
