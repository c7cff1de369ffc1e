package experiments

import (
	"fmt"
	"io"
	"strings"

	"kleb/internal/pmu"
)

// Params is what every registry entry is run with: the experiments CLI's
// -seed, -trials and -workers flags.
type Params struct {
	// Seed bases every run's seed.
	Seed uint64
	// Trials overrides the study's trial count (0 = its default). Table I
	// / Fig 4, Tables II / III / Fig 8 and taillat read it as trials per
	// configuration, Fig 6/7 as averaging rounds and chaos as the number
	// of fault plans; every other study has a fixed design and ignores it.
	Trials int
	// Workers sizes the scheduler's pool (0 = GOMAXPROCS).
	Workers int
}

// trials returns p.Trials, or the study's default def when it is unset.
func (p Params) trials(def int) int {
	if p.Trials > 0 {
		return p.Trials
	}
	return def
}

// A Result is one study's outcome: it renders itself as the study's text
// artifact, and Check tests the paper's claims against its own numbers.
type Result interface {
	Render(w io.Writer)
	// Check returns an error listing every claim the result violates, or
	// nil when they all hold.
	Check() error
}

// An Artifact is one distinct study of the evaluation: the names it is run
// by, how it is titled, and how it runs.
type Artifact struct {
	// Names are the CLI names; Names[0] also names the golden file and
	// the sub-benchmark.
	Names []string
	// Title is the usage line and the Markdown report heading.
	Title string
	// Paper quotes the paper's reported values in the Markdown report
	// ("" if the paper reports none).
	Paper string
	// Gate marks a check that is runnable by name but is not a paper
	// artifact: it is left out of `all` and of the report.
	Gate bool
	// Run runs the study. Call it through Render.
	Run func(p Params) (Result, error)
}

// Render validates p, runs the study, writes its artifact to w and returns
// the result's Check error: the artifact is written even when a claim
// fails, so the numbers that broke it can be read. A failed run writes
// nothing. The bytes depend on p.Seed and p.Trials alone: they are the
// same at any p.Workers and on any host.
//
//klebvet:artifact
func (a Artifact) Render(p Params, w io.Writer) error {
	if p.Trials < 0 {
		return fmt.Errorf("-trials must not be negative, got %d", p.Trials)
	}
	res, err := a.Run(p) //klebvet:allow emitguard -- every Registry entry sets Run
	if err != nil {
		return err
	}
	res.Render(w)
	return res.Check()
}

// Lookup returns the registry entry that answers to name.
func Lookup(name string) (Artifact, bool) {
	for _, a := range Registry() {
		for _, n := range a.Names {
			if n == name {
				return a, true
			}
		}
	}
	return Artifact{}, false
}

// claims collects the claims a result violates, one line each.
type claims []string

// failf records one violated claim.
func (c *claims) failf(format string, args ...any) {
	*c = append(*c, fmt.Sprintf(format, args...))
}

// err reports the violations under the study's name, or nil if none.
func (c claims) err(study string) error {
	if len(c) == 0 {
		return nil
	}
	return fmt.Errorf("%s: %d violations:\n  %s", study, len(c), strings.Join(c, "\n  "))
}

// eventTables is the events gate's result: each machine's architectural
// event table. It claims nothing.
type eventTables struct{}

func (eventTables) Render(w io.Writer) {
	for i, arch := range pmu.Arches() {
		if i > 0 {
			fmt.Fprintln(w)
		}
		pmu.MustTable(arch).Render(w)
	}
}

func (eventTables) Check() error { return nil }

// Registry lists every study once, in the order `experiments all` runs them
// (DESIGN.md §3 indexes them against the paper). Each entry hands Params to
// its runner.
func Registry() []Artifact {
	return []Artifact{
		{
			Names: []string{"table1", "fig4"},
			Title: "Table I / Fig 4 — LINPACK GFLOPS across profiling tools, and its phase behaviour via K-LEB",
			Paper: "GFLOPS (loss %): none 37.24, K-LEB 37.00 (0.64), perf stat 34.78 (7.08), perf record 36.89 (0.96)",
			Run:   func(p Params) (Result, error) { return RunLinpack(p) },
		},
		{
			Names: []string{"table2", "fig8"},
			Title: "Table II / Fig 8 — % overhead on the triple-nested-loop matmul, and its normalized execution time distributions",
			Paper: "% overhead: K-LEB 0.68, perf stat 6.01, perf record 1.65, PAPI 6.43, LiMiT 4.08",
			Run:   func(p Params) (Result, error) { return RunOverhead(p, WorkloadTriple) },
		},
		{
			Names: []string{"table3"},
			Title: "Table III — % overhead, MKL dgemm (stock kernel: LiMiT n/a)",
			Paper: "% overhead: K-LEB 1.13, perf stat 7.64, perf record 2.00, PAPI 21.40, LiMiT n/a",
			Run:   func(p Params) (Result, error) { return RunOverhead(p, WorkloadDgemm) },
		},
		{
			Names: []string{"fig5"},
			Title: "Fig 5 — Docker image LLC MPKI (lineage tracking, both machines)",
			Run:   func(p Params) (Result, error) { return RunDocker(p) },
		},
		{
			Names: []string{"fig6", "fig7"},
			Title: "Fig 6/7 — Meltdown vs non-Meltdown counts and 100µs series",
			Run:   func(p Params) (Result, error) { return RunMeltdown(p) },
		},
		{
			Names: []string{"fig9"},
			Title: "Fig 9 — % difference in whole-run counts vs K-LEB",
			Run:   func(p Params) (Result, error) { return RunAccuracy(p) },
		},
		{
			Names: []string{"timers"},
			Title: "Timer granularity — user timer vs HRTimer (§II-C/§III)",
			Run:   func(p Params) (Result, error) { return RunTimers(p) },
		},
		{
			Names: []string{"sweep"},
			Title: "Rate sweep — overhead vs sampling rate (§V/§VI)",
			Run:   func(p Params) (Result, error) { return RunSweep(p) },
		},
		{
			Names: []string{"buffers"},
			Title: "Ring-size ablation of the safety mechanism",
			Run:   func(p Params) (Result, error) { return RunBufferAblation(p) },
		},
		{
			Names: []string{"drains"},
			Title: "Controller drain-cadence ablation",
			Run:   func(p Params) (Result, error) { return RunDrainAblation(p) },
		},
		{
			Names: []string{"colocate"},
			Title: "Co-location interference — shared-LLC slowdown matrix",
			Run: func(p Params) (Result, error) {
				// One image per MPKI tier: ruby/compute, mysql/LLC-resident,
				// apache/streaming.
				return RunColocate(p, []string{"ruby", "mysql", "apache"})
			},
		},
		{
			Names: []string{"suite"},
			Title: "Characterization fingerprints of the synthetic suite",
			Run:   func(p Params) (Result, error) { return RunCharacterize(p) },
		},
		{
			Names: []string{"placement"},
			Title: "Placement study — 4 containers on 2 cores (§IV-B's rule, measured)",
			Run:   func(p Params) (Result, error) { return RunPlacement(p) },
		},
		{
			Names: []string{"contention"},
			Title: "Online cross-core contention detection",
			Run:   func(p Params) (Result, error) { return RunContention(p) },
		},
		{
			Names: []string{"multiplex"},
			Title: "Multiplexing error (§II-B) — perf stat scaled estimates vs exact K-LEB counts",
			Run:   func(p Params) (Result, error) { return RunMultiplex(p) },
		},
		{
			Names: []string{"taillat"},
			Title: "Tail latency under monitoring — 3-tier serve workload, bare and under each tool",
			Run:   func(p Params) (Result, error) { return RunTailLat(p) },
		},
		{
			Names: []string{"events"},
			Title: "Each machine's architectural event table",
			Gate:  true,
			Run:   func(Params) (Result, error) { return eventTables{}, nil },
		},
		{
			Names: []string{"chaos"},
			Title: "Fault-plan chaos sweep: fails if a run hangs or loses samples unaccounted",
			Gate:  true,
			Run:   func(p Params) (Result, error) { return RunChaos(p) },
		},
	}
}
