package experiments

import (
	"fmt"
	"io"

	"kleb/internal/ktime"
	"kleb/internal/monitor"
	"kleb/internal/session"
	"kleb/internal/trace"
	"kleb/internal/workload"
)

// SweepRow is one (tool, period) measurement.
type SweepRow struct {
	Tool            ToolKind
	RequestedPeriod ktime.Duration
	// EffectivePeriod differs for perf stat below the jiffy.
	EffectivePeriod ktime.Duration
	OverheadPct     float64
	Samples         float64
}

// SweepResult is the rate-sweep dataset.
type SweepResult struct {
	Rows []SweepRow
}

// RunSweep measures K-LEB and perf stat overhead across sampling periods
// on a mid-length workload. K-LEB's overhead rises smoothly as the period
// shrinks (interrupt cost amortization); perf stat silently clamps to the
// 10ms jiffy, so its sample count stops growing. The periods run from
// 100µs, the recommended floor (§VI), to 100ms, with 5 trials per point;
// the sweep ignores p.Trials.
func RunSweep(p Params) (*SweepResult, error) {
	const trials = 5
	script := workload.Synthetic{
		Name:       "sweep-target",
		TotalInstr: 1_000_000_000, // ~200ms
		Footprint:  256 << 10,
	}.Script()
	res := &SweepResult{}
	kinds := []ToolKind{KLEB, PerfStat}
	periods := []ktime.Duration{
		100 * ktime.Microsecond,
		250 * ktime.Microsecond,
		ktime.Millisecond,
		10 * ktime.Millisecond,
		100 * ktime.Millisecond,
	}

	// Batch 1: per-trial baselines (both tools run the stock machine, so one
	// baseline per trial seed serves every sweep point).
	baseSpecs := make([]session.Spec, trials)
	for trial := range baseSpecs {
		baseSpecs[trial] = baselineSpec(ProfileFor(KLEB), p.Seed+uint64(trial)*613, script)
	}
	baseRuns, err := runAll(p.Workers, baseSpecs)
	if err != nil {
		return nil, err
	}

	// Batch 2: the (tool, period, trial) grid.
	var specs []session.Spec
	for _, kind := range kinds {
		for _, period := range periods {
			for trial := 0; trial < trials; trial++ {
				specs = append(specs, session.Spec{
					Profile:   ProfileFor(kind),
					Seed:      p.Seed + uint64(trial)*613,
					NewTarget: targetFactory(script),
					NewTool:   toolFactory(kind, 0),
					Config:    monitor.Config{Events: defaultEvents(), Period: period, ExcludeKernel: true},
				})
			}
		}
	}
	runs, err := runAll(p.Workers, specs)
	if err != nil {
		return nil, err
	}

	i := 0
	for _, kind := range kinds {
		for _, period := range periods {
			var overheads []float64
			var samples float64
			var effective ktime.Duration
			for trial := 0; trial < trials; trial++ {
				run := runs[i]
				i++
				overheads = append(overheads,
					trace.OverheadPct(baseRuns[trial].Elapsed.Seconds(), run.Elapsed.Seconds()))
				samples += float64(len(run.Result.Samples))
				effective = period
				if ps, ok := run.Tool.(interface{ EffectivePeriod() ktime.Duration }); ok {
					effective = ps.EffectivePeriod()
				}
			}
			res.Rows = append(res.Rows, SweepRow{
				Tool:            kind,
				RequestedPeriod: period,
				EffectivePeriod: effective,
				OverheadPct:     trace.Summarize(overheads).Mean,
				Samples:         samples / float64(trials),
			})
		}
	}
	return res, nil
}

// Check tests §V's rate claims: K-LEB's overhead and sample count grow as
// its period shrinks, while perf stat clamps to the 10ms jiffy and stops
// collecting more.
func (r *SweepResult) Check() error {
	var c claims
	get := func(kind ToolKind, period ktime.Duration) SweepRow {
		for _, row := range r.Rows {
			if row.Tool == kind && row.RequestedPeriod == period {
				return row
			}
		}
		c.failf("missing row %s/%v", kind, period)
		return SweepRow{}
	}
	// §V: finer granularity → more samples → more overhead, for K-LEB.
	k100us := get(KLEB, 100*ktime.Microsecond)
	k1ms := get(KLEB, ktime.Millisecond)
	k10ms := get(KLEB, 10*ktime.Millisecond)
	if !(k100us.OverheadPct > k1ms.OverheadPct && k1ms.OverheadPct > k10ms.OverheadPct) {
		c.failf("K-LEB overhead should rise with rate: %.2f / %.2f / %.2f",
			k100us.OverheadPct, k1ms.OverheadPct, k10ms.OverheadPct)
	}
	if k100us.Samples < 5*k1ms.Samples {
		c.failf("sample scaling: %.0f at 100µs vs %.0f at 1ms", k100us.Samples, k1ms.Samples)
	}
	// perf stat silently clamps to the jiffy: same samples at 100µs and 10ms.
	s100us := get(PerfStat, 100*ktime.Microsecond)
	s10ms := get(PerfStat, 10*ktime.Millisecond)
	if s100us.EffectivePeriod != 10*ktime.Millisecond {
		c.failf("perf stat effective period %v", s100us.EffectivePeriod)
	}
	if ratio := s100us.Samples / s10ms.Samples; ratio < 0.8 || ratio > 1.2 {
		c.failf("perf stat sample count should not scale below the jiffy: %.0f vs %.0f",
			s100us.Samples, s10ms.Samples)
	}
	return c.err("sweep")
}

// Render writes the sweep table.
func (r *SweepResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Rate sweep — overhead vs sampling period (K-LEB vs perf stat)")
	fmt.Fprintf(w, "%-12s %12s %12s %12s %10s\n", "tool", "requested", "effective", "overhead%", "samples")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %12v %12v %12.2f %10.0f\n",
			row.Tool, row.RequestedPeriod, row.EffectivePeriod, row.OverheadPct, row.Samples)
	}
}
