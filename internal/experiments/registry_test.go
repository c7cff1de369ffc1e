package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/<name>.golden from each registry entry's 1-worker render")

// goldenParams is the configuration every registry entry is pinned at: 3
// trials keeps the race-enabled CI pass sized.
var goldenParams = Params{Seed: 1, Trials: 3}

// renderAt renders a at goldenParams on the given pool size.
func renderAt(t *testing.T, a Artifact, workers int) []byte {
	t.Helper()
	p := goldenParams
	p.Workers = workers
	var buf bytes.Buffer
	if err := a.Render(p, &buf); err != nil {
		t.Fatalf("%s at %d workers: %v", a.Names[0], workers, err)
	}
	return buf.Bytes()
}

func goldenPath(a Artifact) string {
	return filepath.Join("testdata", a.Names[0]+".golden")
}

// TestArtifactGoldens pins every registry entry's rendered artifact byte
// for byte and requires runs at 2 and 8 workers to reproduce it: the
// worker-count determinism contract every experiment makes. Rewrite the
// goldens with `go test -run ArtifactGoldens -update`.
func TestArtifactGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("every registry artifact in -short mode")
	}
	for _, a := range Registry() {
		t.Run(a.Names[0], func(t *testing.T) {
			t.Parallel()
			serial := renderAt(t, a, 1)
			if *updateGolden {
				if err := os.WriteFile(goldenPath(a), serial, 0o644); err != nil {
					t.Fatal(err)
				}
			} else if want, err := os.ReadFile(goldenPath(a)); err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			} else if !bytes.Equal(serial, want) {
				t.Errorf("artifact drifted from golden.\n--- got ---\n%s--- want ---\n%s", serial, want)
			}
			for _, workers := range []int{2, 8} {
				if got := renderAt(t, a, workers); !bytes.Equal(got, serial) {
					t.Errorf("%d-worker artifact differs from serial run.\n--- got ---\n%s--- want ---\n%s", workers, got, serial)
				}
			}
		})
	}
}

// TestRegistryNames checks that every name the CLI accepts resolves to
// exactly one entry, and that `all` (the non-gate entries) leaves out only
// the two gates.
func TestRegistryNames(t *testing.T) {
	names := []string{
		"table1", "table2", "table3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"timers", "sweep", "buffers", "drains", "colocate", "suite", "placement",
		"contention", "multiplex", "taillat", "events", "chaos",
	}
	owner := map[string]string{}
	gates := []string{}
	for _, a := range Registry() {
		if a.Run == nil || a.Title == "" {
			t.Errorf("%v: entry without Run or Title", a.Names)
		}
		if a.Gate {
			gates = append(gates, a.Names[0])
		}
		for _, n := range a.Names {
			if prev, dup := owner[n]; dup {
				t.Errorf("name %q belongs to both %s and %s", n, prev, a.Names[0])
			}
			owner[n] = a.Names[0]
		}
	}
	for _, n := range names {
		a, ok := Lookup(n)
		if !ok {
			t.Errorf("Lookup(%q) found no entry", n)
		} else if a.Names[0] != owner[n] {
			t.Errorf("Lookup(%q) = %s, want %s", n, a.Names[0], owner[n])
		}
	}
	if len(owner) != len(names) {
		t.Errorf("registry answers to %d names, want %d", len(owner), len(names))
	}
	if got := strings.Join(gates, ","); got != "events,chaos" {
		t.Errorf("gates = %s, want events,chaos", got)
	}
	if _, ok := Lookup("all"); ok {
		t.Error(`"all" must not name an entry`)
	}
}

// TestRenderRejectsNegativeTrials: a negative -trials is refused before
// anything runs, instead of panicking in a slice allocation or rendering
// tables of NaN.
func TestRenderRejectsNegativeTrials(t *testing.T) {
	for _, a := range Registry() {
		var buf bytes.Buffer
		err := a.Render(Params{Seed: 1, Trials: -1}, &buf)
		if err == nil || !strings.Contains(err.Error(), "-trials") {
			t.Errorf("%s: Render(Trials: -1) = %v, want an error naming -trials", a.Names[0], err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: wrote %d bytes before rejecting", a.Names[0], buf.Len())
		}
	}
}

// TestSeedZeroIsASeed: Render's bytes depend on p.Seed, so seed 0 must give
// a different artifact from seed 1 rather than being read as "unset" — the
// studies that derive per-run seeds from p.Seed included.
func TestSeedZeroIsASeed(t *testing.T) {
	if testing.Short() {
		t.Skip("three studies twice in -short mode")
	}
	for _, name := range []string{"multiplex", "taillat", "chaos"} {
		a, _ := Lookup(name)
		var zero, one bytes.Buffer
		if err := a.Render(Params{Seed: 0, Trials: 1}, &zero); err != nil {
			t.Errorf("%s at seed 0: %v", name, err)
		}
		if err := a.Render(Params{Seed: 1, Trials: 1}, &one); err != nil {
			t.Errorf("%s at seed 1: %v", name, err)
		}
		if bytes.Equal(zero.Bytes(), one.Bytes()) {
			t.Errorf("%s renders the same bytes at seed 0 and seed 1", name)
		}
	}
}
