package experiments

import (
	"fmt"
	"io"
	"strings"

	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/monitor"
	"kleb/internal/session"
	"kleb/internal/trace"
)

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
	Rows         []ToolOverhead
}

// RunOverhead measures per-tool run-time overhead at the paper's 10ms
// period: for each trial seed it runs an unmonitored baseline and one run
// per tool on the *same* seed and machine profile, then compares execution
// times, over p.Trials trials per tool (default 15; the paper runs 100,
// with the same statistics). This regenerates Table II and the Fig 8
// distributions (triple loop) and Table III (dgemm). The baselines run as
// one scheduler batch and the monitored trials as a second (tool
// construction needs the baseline elapsed time to size the instrumented
// tools' point counts).
func RunOverhead(p Params, wl Workload) (*OverheadResult, error) {
	const period = 10 * ktime.Millisecond
	trials := p.trials(15)
	script, err := scriptFor(wl)
	if err != nil {
		return nil, err
	}
	res := &OverheadResult{Workload: wl, Period: period, Trials: trials}

	// Table III's MKL workload needs the modern OS, so every tool runs the
	// stock kernel there, and LiMiT — which only exists as a patch to the
	// legacy kernel — comes out "n/a" exactly as in the paper.
	profileFor := func(kind ToolKind) machine.Profile {
		if wl == WorkloadDgemm {
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
	baseSpecs := make([]session.Spec, 0, len(profiles)*trials)
	for _, prof := range profiles {
		for trial := 0; trial < trials; trial++ {
			baseSpecs = append(baseSpecs, baselineSpec(prof, p.Seed+uint64(trial)*7919, script))
		}
	}
	baseRuns, err := runAll(p.Workers, baseSpecs)
	if err != nil {
		return nil, err
	}
	baselines := map[string][]ktime.Duration{}
	for pi, prof := range profiles {
		for trial := 0; trial < trials; trial++ {
			baselines[prof.Name] = append(baselines[prof.Name], baseRuns[pi*trials+trial].Elapsed)
		}
	}

	// Batch 2: one monitored run per (tool, trial).
	specs := make([]session.Spec, 0, len(tools)*trials)
	for _, kind := range tools {
		for trial := 0; trial < trials; trial++ {
			base := baselines[profileFor(kind).Name][trial]
			specs = append(specs, session.Spec{
				Profile:    profileFor(kind),
				Seed:       p.Seed + uint64(trial)*7919,
				NewTarget:  targetFactory(script),
				NewTool:    toolFactory(kind, pointsFor(base, period)),
				Config:     monitor.Config{Events: defaultEvents(), Period: period, ExcludeKernel: true},
				TargetName: string(wl),
			})
		}
	}
	outs := session.Scheduler{Workers: p.Workers}.Run(specs)

	for ki, kind := range tools {
		row := ToolOverhead{Tool: kind}
		var sampleSum float64
		for trial := 0; trial < trials; trial++ {
			o := outs[ki*trials+trial]
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
	var sum float64
	for _, d := range nb {
		sum += d.Seconds()
	}
	if len(nb) > 0 {
		res.BaselineMean = ktime.Duration(sum / float64(len(nb)) * float64(ktime.Second))
	}
	return res, nil
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

// Render writes the study as a table in the paper's format, followed for
// the triple loop by Fig 8's box-and-whisker description per tool (Table
// III has no Fig 8).
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
	if r.Workload != WorkloadTriple {
		return
	}
	fmt.Fprintf(w, "\nFig 8 — normalized execution time distribution (%d trials)\n", r.Trials)
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

// Check tests the paper's claims. For the triple loop these are Table
// II's ordering and bands, its ≈2s baseline, comparable sample counts and
// Fig 8's tightest K-LEB spread; for dgemm, Table III's short-run claims.
func (r *OverheadResult) Check() error {
	var c claims
	tools := AllTools()
	rows := make([]ToolOverhead, len(tools))
	for i, kind := range tools {
		var ok bool
		if rows[i], ok = r.Row(kind); !ok {
			c.failf("%s row missing", kind)
		}
	}
	study := "Table II / Fig 8"
	if r.Workload == WorkloadDgemm {
		study = "Table III"
	}
	if len(c) > 0 {
		return c.err(study)
	}
	kleb, stat, rec, papi, limit := rows[0], rows[1], rows[2], rows[3], rows[4]
	if r.Workload == WorkloadDgemm {
		// dgemm runs in under 100ms (the Table III premise).
		if r.BaselineMean > 100*ktime.Millisecond {
			c.failf("dgemm baseline %v, paper says <100ms", r.BaselineMean)
		}
		// LiMiT is n/a on the stock kernel.
		if !strings.Contains(limit.Unsupported, "patch") {
			c.failf("LiMiT should be n/a in Table III: %q", limit.Unsupported)
		}
		// PAPI's fixed init cost blows up on the short run (paper: 21.4%).
		if papi.Mean < 12 {
			c.failf("PAPI dgemm overhead %.2f%% too small (paper 21.4%%)", papi.Mean)
		}
		if papi.Mean < 2*stat.Mean {
			c.failf("PAPI (%.1f%%) should dwarf perf stat (%.1f%%) on the short run", papi.Mean, stat.Mean)
		}
		if !(kleb.Mean < rec.Mean && rec.Mean < stat.Mean && stat.Mean < papi.Mean) {
			c.failf("Table III ordering: kleb=%.2f rec=%.2f stat=%.2f papi=%.2f",
				kleb.Mean, rec.Mean, stat.Mean, papi.Mean)
		}
		if kleb.Mean > 3 {
			c.failf("K-LEB dgemm overhead %.2f%% (paper 1.13%%)", kleb.Mean)
		}
		return c.err(study)
	}

	for _, row := range rows {
		if row.Unsupported != "" {
			c.failf("%s missing from Table II: %s", row.Tool, row.Unsupported)
		}
	}
	// Paper Table II: K-LEB 0.68 < perf record ~1.65 < LiMiT 4.08 <
	// perf stat 6.01 < PAPI 6.43.
	if !(kleb.Mean < rec.Mean && rec.Mean < limit.Mean && limit.Mean < stat.Mean && stat.Mean < papi.Mean) {
		c.failf("overhead ordering broken: kleb=%.2f rec=%.2f limit=%.2f stat=%.2f papi=%.2f",
			kleb.Mean, rec.Mean, limit.Mean, stat.Mean, papi.Mean)
	}
	if kleb.Mean < 0.1 || kleb.Mean > 2.0 {
		c.failf("K-LEB overhead %.2f%% outside the paper's band (~0.68%%)", kleb.Mean)
	}
	if papi.Mean < 4 || papi.Mean > 11 {
		c.failf("PAPI overhead %.2f%% outside the paper's band (~6.43%%)", papi.Mean)
	}
	// The headline: K-LEB cuts overhead vs the next best tool by >50%
	// (paper: 58.8% vs perf record).
	if reduction := 100 * (1 - kleb.Mean/rec.Mean); reduction < 40 {
		c.failf("K-LEB reduction vs perf record only %.1f%% (paper: 58.8%%)", reduction)
	}
	if r.BaselineMean < 1500*ktime.Millisecond || r.BaselineMean > 3*ktime.Second {
		c.failf("triple-loop baseline %v, paper says ≈2s", r.BaselineMean)
	}
	// The paper matches the tools' sample counts (~200 at 10ms over ~2s).
	for _, row := range []ToolOverhead{kleb, stat, papi, limit} {
		if row.Samples < 150 || row.Samples > 260 {
			c.failf("%s collected %.0f samples, want ≈200", row.Tool, row.Samples)
		}
	}
	// Fig 8: K-LEB's run-to-run variation is the smallest ("the least
	// interference ... the most consistent tool"), with a small
	// statistical margin, and its median sits below every other tool's.
	klebStd := trace.Summarize(kleb.Normalized).Stddev
	for _, row := range rows[1:] {
		if std := trace.Summarize(row.Normalized).Stddev; klebStd > std*1.2 {
			c.failf("K-LEB normalized-time stddev %.6f exceeds %s's %.6f", klebStd, row.Tool, std)
		}
		if kleb.Box.Median >= row.Box.Median {
			c.failf("K-LEB median %.4f not below %s median %.4f", kleb.Box.Median, row.Tool, row.Box.Median)
		}
	}
	return c.err(study)
}
