package experiments

import (
	"fmt"
	"io"
	"sort"

	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/monitor"
	"kleb/internal/session"
	"kleb/internal/trace"
)

// OverheadConfig parameterizes the Table II / Table III / Fig 8 study.
type OverheadConfig struct {
	// Workload is the monitored program (default WorkloadTriple).
	Workload Workload
	// Trials is the number of repetitions per tool (the paper runs 100;
	// the default regeneration uses fewer for runtime, same statistics).
	Trials int
	// Seed bases the per-trial seeds.
	Seed uint64
	// Workers sizes the scheduler's pool (0 = GOMAXPROCS).
	Workers int
}

func (c *OverheadConfig) defaults() {
	if c.Trials == 0 {
		c.Trials = 15
	}
	if c.Workload == "" {
		c.Workload = WorkloadTriple
	}
}

// ToolOverhead is one tool's row in the overhead table.
type ToolOverhead struct {
	Tool ToolKind
	// Unsupported is set (with a reason) when the tool cannot run this
	// configuration at all — LiMiT on an unpatched kernel (Table III).
	Unsupported string
	// OverheadPct are per-trial overhead percentages vs the same-seed
	// baseline; Mean/Box summarize them.
	OverheadPct []float64
	Mean        float64
	Box         trace.Box
	// Normalized are per-trial execution times normalized to the baseline
	// mean — the paper's Fig 8 y-axis.
	Normalized []float64
	// Samples is the mean number of samples collected per trial.
	Samples float64
}

// OverheadResult is the complete study output.
type OverheadResult struct {
	Workload     Workload
	Period       ktime.Duration
	Trials       int
	BaselineMean ktime.Duration
	BaselineRuns []ktime.Duration
	Rows         []ToolOverhead
}

// RunOverhead measures per-tool run-time overhead at the paper's 10ms
// period: for each trial seed it runs an unmonitored baseline and one run
// per tool on the *same* seed and machine profile, then compares execution
// times. This regenerates Table II (triple loop), Table III (dgemm) and the
// Fig 8 distributions. The baselines run as one scheduler batch and the
// monitored trials as a second (tool construction needs the baseline
// elapsed time to size the instrumented tools' point counts).
func RunOverhead(cfg OverheadConfig) (*OverheadResult, error) {
	const period = 10 * ktime.Millisecond
	cfg.defaults()
	script, err := scriptFor(cfg.Workload)
	if err != nil {
		return nil, err
	}
	res := &OverheadResult{Workload: cfg.Workload, Period: period, Trials: cfg.Trials}

	// Table III's MKL workload needs the modern OS, so every tool runs the
	// stock kernel there, and LiMiT — which only exists as a patch to the
	// legacy kernel — comes out "n/a" exactly as in the paper.
	profileFor := func(kind ToolKind) machine.Profile {
		if cfg.Workload == WorkloadDgemm {
			return machine.Nehalem()
		}
		return ProfileFor(kind)
	}

	// Batch 1: baselines per profile (LiMiT's patched machine has its own
	// timing), one run per trial seed.
	tools := AllTools()
	var profiles []machine.Profile
	seenProf := map[string]bool{}
	for _, kind := range tools {
		if p := profileFor(kind); !seenProf[p.Name] {
			seenProf[p.Name] = true
			profiles = append(profiles, p)
		}
	}
	var baseSpecs []session.Spec
	for _, prof := range profiles {
		for trial := 0; trial < cfg.Trials; trial++ {
			baseSpecs = append(baseSpecs, baselineSpec(prof, cfg.Seed+uint64(trial)*7919, script))
		}
	}
	baseRuns, err := runAll(cfg.Workers, baseSpecs)
	if err != nil {
		return nil, err
	}
	baselines := map[string][]ktime.Duration{}
	for pi, prof := range profiles {
		for trial := 0; trial < cfg.Trials; trial++ {
			baselines[prof.Name] = append(baselines[prof.Name], baseRuns[pi*cfg.Trials+trial].Elapsed)
		}
	}

	// Batch 2: one monitored run per (tool, trial).
	var specs []session.Spec
	for _, kind := range tools {
		for trial := 0; trial < cfg.Trials; trial++ {
			base := baselines[profileFor(kind).Name][trial]
			specs = append(specs, session.Spec{
				Profile:    profileFor(kind),
				Seed:       cfg.Seed + uint64(trial)*7919,
				NewTarget:  targetFactory(script),
				NewTool:    toolFactory(kind, pointsFor(base, period)),
				Config:     monitor.Config{Events: defaultEvents(), Period: period, ExcludeKernel: true},
				TargetName: string(cfg.Workload),
			})
		}
	}
	outs := session.Scheduler{Workers: cfg.Workers}.Run(specs)

	for ki, kind := range tools {
		row := ToolOverhead{Tool: kind}
		var sampleSum float64
		for trial := 0; trial < cfg.Trials; trial++ {
			o := outs[ki*cfg.Trials+trial]
			if o.Err != nil {
				// A tool that cannot run this configuration at all fails on
				// its first trial; any later failure is a real error.
				if trial == 0 {
					row.Unsupported = o.Err.Error()
					break
				}
				return nil, o.Err
			}
			base := baselines[profileFor(kind).Name][trial]
			run := o.Run
			row.OverheadPct = append(row.OverheadPct,
				trace.OverheadPct(base.Seconds(), run.Elapsed.Seconds()))
			row.Normalized = append(row.Normalized,
				run.Elapsed.Seconds()/base.Seconds())
			n := len(run.Result.Samples)
			if kind == PerfRecord {
				if rt, ok := run.Tool.(interface{ SampleCount() int }); ok {
					n = rt.SampleCount()
				}
			}
			sampleSum += float64(n)
		}
		if row.Unsupported == "" {
			row.Mean = trace.Summarize(row.OverheadPct).Mean
			row.Box = trace.BoxPlot(row.Normalized)
			row.Samples = sampleSum / float64(len(row.OverheadPct))
		}
		res.Rows = append(res.Rows, row)
	}

	// The Nehalem baseline is the headline number.
	nb := baselines[profileFor(KLEB).Name]
	res.BaselineRuns = nb
	var sum float64
	for _, d := range nb {
		sum += d.Seconds()
	}
	if len(nb) > 0 {
		res.BaselineMean = ktime.Duration(sum / float64(len(nb)) * float64(ktime.Second))
	}
	return res, nil
}

// SortedByOverhead returns the supported rows ordered best-first.
func (r *OverheadResult) SortedByOverhead() []ToolOverhead {
	rows := make([]ToolOverhead, 0, len(r.Rows))
	for _, row := range r.Rows {
		if row.Unsupported == "" {
			rows = append(rows, row)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Mean < rows[j].Mean })
	return rows
}

// Row looks up one tool's row.
func (r *OverheadResult) Row(kind ToolKind) (ToolOverhead, bool) {
	for _, row := range r.Rows {
		if row.Tool == kind {
			return row, true
		}
	}
	return ToolOverhead{}, false
}

// Render writes the study as a table in the paper's format.
func (r *OverheadResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Overhead study — workload %s, period %v, %d trials, baseline %v\n",
		r.Workload, r.Period, r.Trials, r.BaselineMean)
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s %9s\n", "tool", "mean%", "median%", "norm-Q1", "norm-Q3", "samples")
	for _, row := range r.Rows {
		if row.Unsupported != "" {
			fmt.Fprintf(w, "%-12s %10s  (%s)\n", row.Tool, "n/a", row.Unsupported)
			continue
		}
		fmt.Fprintf(w, "%-12s %10.2f %10.2f %10.4f %10.4f %9.0f\n",
			row.Tool, row.Mean, trace.Median(row.OverheadPct), row.Box.Q1, row.Box.Q3, row.Samples)
	}
}

// RenderBoxes writes Fig 8's box-and-whisker description per tool.
func (r *OverheadResult) RenderBoxes(w io.Writer) {
	fmt.Fprintf(w, "Fig 8 — normalized execution time distribution (%d trials)\n", r.Trials)
	fmt.Fprintf(w, "%-12s %9s %9s %9s %9s %9s %9s\n", "tool", "whisk-lo", "Q1", "median", "Q3", "whisk-hi", "spread")
	for _, row := range r.Rows {
		if row.Unsupported != "" {
			continue
		}
		b := row.Box
		fmt.Fprintf(w, "%-12s %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f\n",
			row.Tool, b.WhiskerLow, b.Q1, b.Median, b.Q3, b.WhiskerHigh, b.Spread())
	}
}
