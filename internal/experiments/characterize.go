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

// Check tests that the suite's fingerprints separate as their families
// should: compute vs memory bound, predictable vs dispatch-heavy branches,
// and prefetched streaming vs random chasing.
func (r *CharacterizeResult) Check() error {
	var c claims
	if len(r.Rows) != 6 {
		c.failf("suite rows: %d, want 6", len(r.Rows))
	}
	get := func(name string) CharacterizeRow {
		row, ok := r.Row(name)
		if !ok {
			c.failf("%s missing", name)
		}
		return row
	}
	crypto, chaser, interp := get("crypto"), get("pointer-chaser"), get("interpreter")
	stencil, compressor := get("stencil"), get("compressor")

	// Compute-bound vs memory-bound: order of magnitude apart in IPC.
	if crypto.IPC < 10*chaser.IPC {
		c.failf("IPC separation: crypto %.2f vs pointer-chaser %.2f", crypto.IPC, chaser.IPC)
	}
	if crypto.MPKI > 0.1 {
		c.failf("crypto MPKI %.2f; its tables fit in L1", crypto.MPKI)
	}
	if chaser.MPKI < 30 {
		c.failf("pointer-chaser MPKI %.2f; it should live in DRAM", chaser.MPKI)
	}
	// Branch behaviour: the interpreter's dispatch loop mispredicts far
	// more per branch than the stencil's trip-count loops.
	if interp.MissPer1KBr < 10*stencil.MissPer1KBr {
		c.failf("branch separation: interpreter %.1f vs stencil %.1f",
			interp.MissPer1KBr, stencil.MissPer1KBr)
	}
	// Streaming with prefetch beats random chasing per miss: the stencil
	// has high MPKI yet much better IPC than the chaser.
	if stencil.MPKI < 10 || stencil.IPC < 2*chaser.IPC {
		c.failf("prefetch effect missing: stencil IPC %.2f MPKI %.1f vs chaser IPC %.2f",
			stencil.IPC, stencil.MPKI, chaser.IPC)
	}
	// The branchy integer code is branch-dominated but cache-friendly.
	if compressor.BranchPct < 15 || compressor.MPKI > 1 {
		c.failf("compressor fingerprint: branch%%=%.1f MPKI=%.2f", compressor.BranchPct, compressor.MPKI)
	}
	for _, row := range r.Rows {
		if row.Samples == 0 || row.Elapsed == 0 {
			c.failf("%s: degenerate run", row.Name)
		}
	}
	return c.err("suite")
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
