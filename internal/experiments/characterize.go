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

// Workload characterization of the synthetic suite via K-LEB — the
// bread-and-butter IISWC exercise the tool exists for: one pass per
// benchmark collecting {instructions, cycles, LLC misses, branches, branch
// misses} and deriving the standard fingerprint metrics.

// CharacterizeRow is one benchmark's fingerprint.
type CharacterizeRow struct {
	Name, Family string
	Elapsed      ktime.Duration
	IPC          float64 // instructions per cycle
	MPKI         float64 // LLC misses per kilo-instruction
	BranchPct    float64 // branches per 100 instructions
	MissPer1KBr  float64 // mispredicts per kilo-branch
	Samples      int
}

// CharacterizeResult is the suite table.
type CharacterizeResult struct {
	Rows []CharacterizeRow
}

// Row looks up one benchmark.
func (r *CharacterizeResult) Row(name string) (CharacterizeRow, bool) {
	for _, row := range r.Rows {
		if row.Name == name {
			return row, true
		}
	}
	return CharacterizeRow{}, false
}

// RunCharacterize profiles every suite member under K-LEB at 1ms.
func RunCharacterize(p Params) (*CharacterizeResult, error) {
	const period = ktime.Millisecond
	events := []isa.Event{
		isa.EvInstructions, isa.EvCycles,
		isa.EvLLCMisses, isa.EvBranches, isa.EvBranchMisses,
	}
	res := &CharacterizeResult{}
	suite := workload.Suite()
	specs := make([]session.Spec, len(suite))
	for i, b := range suite {
		specs[i] = session.Spec{
			Profile:    ProfileFor(KLEB),
			Seed:       p.Seed + uint64(workload.ClassSeed(b.Name)),
			TargetName: b.Name,
			NewTarget:  targetFactory(b.Script()),
			NewTool:    toolFactory(KLEB, 0),
			Config:     monitor.Config{Events: events, Period: period, ExcludeKernel: true},
		}
	}
	runs, err := runAll(p.Workers, specs)
	if err != nil {
		return nil, err
	}
	for i, b := range suite {
		run := runs[i]
		tot := run.Result.Totals
		row := CharacterizeRow{
			Name: b.Name, Family: b.Family,
			Elapsed: run.Elapsed,
			MPKI:    trace.MPKI(tot[isa.EvLLCMisses], tot[isa.EvInstructions]),
			Samples: len(run.Result.Samples),
		}
		if cyc := tot[isa.EvCycles]; cyc > 0 {
			row.IPC = float64(tot[isa.EvInstructions]) / float64(cyc)
		}
		if in := tot[isa.EvInstructions]; in > 0 {
			row.BranchPct = 100 * float64(tot[isa.EvBranches]) / float64(in)
		}
		if br := tot[isa.EvBranches]; br > 0 {
			row.MissPer1KBr = 1000 * float64(tot[isa.EvBranchMisses]) / float64(br)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render writes the characterization table.
func (r *CharacterizeResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Workload characterization via K-LEB (per-benchmark fingerprints)")
	fmt.Fprintf(w, "%-15s %10s %7s %7s %8s %10s  %s\n",
		"benchmark", "elapsed", "IPC", "MPKI", "branch%", "miss/KBr", "family")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-15s %10v %7.2f %7.2f %8.1f %10.1f  %s\n",
			row.Name, row.Elapsed, row.IPC, row.MPKI, row.BranchPct, row.MissPer1KBr, row.Family)
	}
}
