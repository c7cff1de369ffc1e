package experiments

import (
	"fmt"
	"io"

	"kleb/internal/isa"
	"kleb/internal/ktime"
	"kleb/internal/monitor"
	"kleb/internal/session"
	"kleb/internal/trace"
	"kleb/internal/workload"
)

// AccuracyRow compares one tool's per-event totals against K-LEB's.
type AccuracyRow struct {
	Tool        ToolKind
	Unsupported string
	// DiffPct maps each deterministic event to the percent difference in
	// whole-run count versus K-LEB (the paper's Fig 9 metric).
	DiffPct map[isa.Event]float64
	MaxPct  float64
}

// AccuracyResult is the Fig 9 dataset.
type AccuracyResult struct {
	Events []isa.Event
	KLEB   map[isa.Event]uint64
	Rows   []AccuracyRow
}

// RunAccuracy regenerates Fig 9: every tool monitors the paper's matmul on
// the same seed at 10ms; whole-run counts of the deterministic
// architectural events (branches, loads, stores, instructions) are
// compared pairwise against K-LEB. Differences come from gating edges,
// multiplexing and sampling quantization — nothing is hard-coded.
func RunAccuracy(p Params) (*AccuracyResult, error) {
	const period = 10 * ktime.Millisecond
	script := workload.NewTripleLoopMatmul().Script()
	events := []isa.Event{isa.EvBranches, isa.EvLoads, isa.EvStores, isa.EvInstructions}
	mcfg := monitor.Config{Events: events, Period: period, ExcludeKernel: true}

	// Batch 1: a baseline per tool's machine profile — the instrumented
	// tools size their point counts from the baseline's elapsed time.
	kinds := []ToolKind{KLEB, PerfStat, PerfRecord, PAPI, LiMiT}
	baseSpecs := make([]session.Spec, len(kinds))
	for i, kind := range kinds {
		baseSpecs[i] = baselineSpec(ProfileFor(kind), p.Seed, script)
	}
	baseOuts := session.Scheduler{Workers: p.Workers}.Run(baseSpecs)

	// Batch 2: the monitored runs, all on the same seed.
	runSpecs := make([]session.Spec, len(kinds))
	for i, kind := range kinds {
		if baseOuts[i].Err != nil {
			continue // surfaces as the row's Unsupported reason below
		}
		runSpecs[i] = session.Spec{
			Profile:    ProfileFor(kind),
			Seed:       p.Seed,
			NewTarget:  targetFactory(script),
			TargetName: string(WorkloadTriple),
			NewTool:    toolFactory(kind, pointsFor(baseOuts[i].Run.Elapsed, period)),
			Config:     mcfg,
		}
	}
	runOuts := session.Scheduler{Workers: p.Workers}.Run(runSpecs)

	totalsFor := func(i int) (map[isa.Event]uint64, error) {
		if baseOuts[i].Err != nil {
			return nil, baseOuts[i].Err
		}
		if runOuts[i].Err != nil {
			return nil, runOuts[i].Err
		}
		return runOuts[i].Run.Result.Totals, nil
	}

	kt, err := totalsFor(0)
	if err != nil {
		return nil, err
	}
	res := &AccuracyResult{Events: events, KLEB: kt}
	for i, kind := range kinds[1:] {
		row := AccuracyRow{Tool: kind, DiffPct: map[isa.Event]float64{}}
		totals, err := totalsFor(i + 1)
		if err != nil {
			row.Unsupported = err.Error()
			res.Rows = append(res.Rows, row)
			continue
		}
		for _, ev := range events {
			d := trace.PercentDiff(kt[ev], totals[ev])
			row.DiffPct[ev] = d
			if d > row.MaxPct {
				row.MaxPct = d
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render writes the Fig 9 table.
func (r *AccuracyResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig 9 — % difference in whole-run event counts vs K-LEB (deterministic events)")
	fmt.Fprintf(w, "%-12s", "tool")
	for _, ev := range r.Events {
		fmt.Fprintf(w, " %22s", ev)
	}
	fmt.Fprintf(w, " %9s\n", "max")
	for _, row := range r.Rows {
		if row.Unsupported != "" {
			fmt.Fprintf(w, "%-12s  n/a (%s)\n", row.Tool, row.Unsupported)
			continue
		}
		fmt.Fprintf(w, "%-12s", row.Tool)
		for _, ev := range r.Events {
			fmt.Fprintf(w, " %22.5f", row.DiffPct[ev])
		}
		fmt.Fprintf(w, " %9.5f\n", row.MaxPct)
	}
}
