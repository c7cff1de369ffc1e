package experiments

import (
	"fmt"
	"io"

	"kleb/internal/pmu"
)

// Params is what every registry entry is run with: the experiments CLI's
// -seed, -trials and -workers flags.
type Params struct {
	// Seed bases every run's seed.
	Seed uint64
	// Trials overrides the study's trial count (0 = its default). Fig 6/7
	// read it as averaging rounds and chaos as the number of fault plans;
	// studies with a fixed design ignore it.
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

// An Artifact is one distinct study of the evaluation: the names it is run
// by, how it is titled, and how it regenerates its text artifact.
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
	// Run runs the study and renders it to w; it returns the study's own
	// Check error, if it has one. Call it through Render.
	Run func(p Params, w io.Writer) error
}

// Render validates p, then runs the study and writes its artifact to w.
// The bytes depend on p.Seed and p.Trials alone: they are the same at any
// p.Workers and on any host.
//
//klebvet:artifact
func (a Artifact) Render(p Params, w io.Writer) error {
	if p.Trials < 0 {
		return fmt.Errorf("-trials must not be negative, got %d", p.Trials)
	}
	return a.Run(p, w) //klebvet:allow emitguard -- every Registry entry sets Run
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

// emit renders a runner's result to w, or passes its error on.
func emit(w io.Writer, res interface{ Render(io.Writer) }, err error) error {
	if err != nil {
		return err
	}
	res.Render(w)
	return nil
}

// Registry lists every study once, in the order `experiments all` runs them
// (DESIGN.md §3 indexes them against the paper). Each entry hands Params to
// its runner, mapped onto the runner's configuration where the study has
// one.
func Registry() []Artifact {
	return []Artifact{
		{
			Names: []string{"table1", "fig4"},
			Title: "Table I / Fig 4 — LINPACK GFLOPS across profiling tools, and its phase behaviour via K-LEB",
			Paper: "GFLOPS (loss %): none 37.24, K-LEB 37.00 (0.64), perf stat 34.78 (7.08), perf record 36.89 (0.96)",
			Run: func(p Params, w io.Writer) error {
				res, err := RunLinpack(p)
				return emit(w, res, err)
			},
		},
		{
			Names: []string{"table2"},
			Title: "Table II — % overhead, triple-nested-loop matmul",
			Paper: "% overhead: K-LEB 0.68, perf stat 6.01, perf record 1.65, PAPI 6.43, LiMiT 4.08",
			Run: func(p Params, w io.Writer) error {
				res, err := RunOverhead(OverheadConfig{Workload: WorkloadTriple, Trials: p.Trials, Seed: p.Seed, Workers: p.Workers})
				return emit(w, res, err)
			},
		},
		{
			Names: []string{"table3"},
			Title: "Table III — % overhead, MKL dgemm (stock kernel: LiMiT n/a)",
			Paper: "% overhead: K-LEB 1.13, perf stat 7.64, perf record 2.00, PAPI 21.40, LiMiT n/a",
			Run: func(p Params, w io.Writer) error {
				res, err := RunOverhead(OverheadConfig{Workload: WorkloadDgemm, Trials: p.Trials, Seed: p.Seed, Workers: p.Workers})
				return emit(w, res, err)
			},
		},
		{
			Names: []string{"fig5"},
			Title: "Fig 5 — Docker image LLC MPKI (lineage tracking, both machines)",
			Run: func(p Params, w io.Writer) error {
				res, err := RunDocker(p)
				return emit(w, res, err)
			},
		},
		{
			Names: []string{"fig6", "fig7"},
			Title: "Fig 6/7 — Meltdown vs non-Meltdown counts and 100µs series",
			Run: func(p Params, w io.Writer) error {
				res, err := RunMeltdown(p)
				return emit(w, res, err)
			},
		},
		{
			Names: []string{"fig8"},
			Title: "Fig 8 — normalized execution time distributions",
			Run: func(p Params, w io.Writer) error {
				res, err := RunOverhead(OverheadConfig{Workload: WorkloadTriple, Trials: p.Trials, Seed: p.Seed, Workers: p.Workers})
				if err != nil {
					return err
				}
				res.RenderBoxes(w)
				return nil
			},
		},
		{
			Names: []string{"fig9"},
			Title: "Fig 9 — % difference in whole-run counts vs K-LEB",
			Run: func(p Params, w io.Writer) error {
				res, err := RunAccuracy(p)
				return emit(w, res, err)
			},
		},
		{
			Names: []string{"timers"},
			Title: "Timer granularity — user timer vs HRTimer (§II-C/§III)",
			Run: func(p Params, w io.Writer) error {
				res, err := RunTimers(p.Seed, p.Workers)
				return emit(w, res, err)
			},
		},
		{
			Names: []string{"sweep"},
			Title: "Rate sweep — overhead vs sampling rate (§V/§VI)",
			Run: func(p Params, w io.Writer) error {
				res, err := RunSweep(SweepConfig{Seed: p.Seed, Workers: p.Workers})
				return emit(w, res, err)
			},
		},
		{
			Names: []string{"buffers"},
			Title: "Ring-size ablation of the safety mechanism",
			Run: func(p Params, w io.Writer) error {
				res, err := RunBufferAblation(BufferAblationConfig{Seed: p.Seed, Workers: p.Workers})
				return emit(w, res, err)
			},
		},
		{
			Names: []string{"drains"},
			Title: "Controller drain-cadence ablation",
			Run: func(p Params, w io.Writer) error {
				res, err := RunDrainAblation(DrainAblationConfig{Seed: p.Seed, Workers: p.Workers})
				return emit(w, res, err)
			},
		},
		{
			Names: []string{"colocate"},
			Title: "Co-location interference — shared-LLC slowdown matrix",
			Run: func(p Params, w io.Writer) error {
				res, err := RunColocate(ColocateConfig{Seed: p.Seed, Workers: p.Workers})
				return emit(w, res, err)
			},
		},
		{
			Names: []string{"suite"},
			Title: "Characterization fingerprints of the synthetic suite",
			Run: func(p Params, w io.Writer) error {
				res, err := RunCharacterize(p)
				return emit(w, res, err)
			},
		},
		{
			Names: []string{"placement"},
			Title: "Placement study — 4 containers on 2 cores (§IV-B's rule, measured)",
			Run: func(p Params, w io.Writer) error {
				res, err := RunPlacement(p.Seed, p.Workers)
				return emit(w, res, err)
			},
		},
		{
			Names: []string{"contention"},
			Title: "Online cross-core contention detection",
			Run: func(p Params, w io.Writer) error {
				res, err := RunContention(p.Seed)
				return emit(w, res, err)
			},
		},
		{
			Names: []string{"multiplex"},
			Title: "Multiplexing error (§II-B) — perf stat scaled estimates vs exact K-LEB counts",
			Run: func(p Params, w io.Writer) error {
				res, err := RunMultiplex(p)
				if err := emit(w, res, err); err != nil {
					return err
				}
				// The sweep doubles as a gate on the multiplexing model.
				return res.Check()
			},
		},
		{
			Names: []string{"taillat"},
			Title: "Tail latency under monitoring — 3-tier serve workload, bare and under each tool",
			Run: func(p Params, w io.Writer) error {
				res, err := RunTailLat(p)
				if err := emit(w, res, err); err != nil {
					return err
				}
				// K-LEB's p99 inflation must stay strictly below perf
				// stat's and PAPI's.
				return res.Check()
			},
		},
		{
			Names: []string{"events"},
			Title: "Each machine's architectural event table",
			Gate:  true,
			Run: func(_ Params, w io.Writer) error {
				for i, arch := range pmu.Arches() {
					if i > 0 {
						fmt.Fprintln(w)
					}
					pmu.MustTable(arch).Render(w)
				}
				return nil
			},
		},
		{
			Names: []string{"chaos"},
			Title: "Fault-plan chaos sweep: fails if a run hangs or loses samples unaccounted",
			Gate:  true,
			Run: func(p Params, w io.Writer) error {
				res, err := RunChaos(p)
				if err := emit(w, res, err); err != nil {
					return err
				}
				return res.Check()
			},
		},
	}
}
