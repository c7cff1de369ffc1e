package experiments

import (
	"fmt"
	"io"
	"math"

	"kleb/internal/isa"
	"kleb/internal/kleb"
	"kleb/internal/ktime"
	"kleb/internal/monitor"
	"kleb/internal/session"
	"kleb/internal/workload"
)

// The multiplexing-error study quantifies the cost of perf_events time
// multiplexing (the paper's §II-B objection to perf): sweep the requested
// event count past the PMU's four programmable counters and compare perf
// stat's enabled/running-scaled estimates against exact ground truth. The
// ground truth comes from K-LEB itself, which refuses to multiplex: the
// same mix is split into counter-sized chunks and each chunk is counted
// exactly in its own run. Under the budget the two agree; past it, perf's
// totals become extrapolations and drift from the true counts.

// multiplexPool is the sweep's event pool, ordered so the under-budget
// prefixes are unconstrained and the oversubscribed mixes pull in
// counter-constrained events (ARITH.MUL only schedules on PMC0-1),
// exercising the constraint-aware rotation, not just round counting.
func multiplexPool() []isa.Event {
	return []isa.Event{
		isa.EvLoads,
		isa.EvStores,
		isa.EvBranches,
		isa.EvLLCMisses,
		isa.EvBranchMisses,
		isa.EvLLCRefs,
		isa.EvMulOps,
		isa.EvDTLBMisses,
	}
}

// MultiplexCell is one event's comparison within a mix.
type MultiplexCell struct {
	Event isa.Event
	// Reported is perf stat's total (enabled/running-scaled when the mix
	// multiplexes); Scale is the extrapolation factor it applied.
	Reported uint64
	Scale    float64
	// Exact is the K-LEB chunk run's directly counted total.
	Exact uint64
	// ErrPct is the signed relative error of Reported against Exact.
	ErrPct float64
}

// MultiplexRow is one mix's outcome.
type MultiplexRow struct {
	// N is the requested programmable-event count.
	N int
	// Rounds is what the PMU event scheduler needs for this mix (1 = the
	// whole mix counts simultaneously, >1 = time multiplexed).
	Rounds int
	// Estimated reports whether perf stat flagged its totals as scaled.
	Estimated bool
	Cells     []MultiplexCell
}

// MaxAbsErrPct is the row's worst-event absolute error.
func (r MultiplexRow) MaxAbsErrPct() float64 {
	worst := 0.0
	for _, c := range r.Cells {
		if e := math.Abs(c.ErrPct); e > worst {
			worst = e
		}
	}
	return worst
}

// MultiplexResult is the sweep output.
type MultiplexResult struct {
	Workload Workload
	Rows     []MultiplexRow
}

// RunMultiplex sweeps the event-count mixes on the triple-loop matmul:
// 2, 4, 6 and 8 programmable events, two under the 4-counter budget and
// two past it. Each mix runs perf stat once over the full mix plus K-LEB
// over each 4-event chunk of it, all fanned over one scheduler batch;
// results are bit-identical at any worker count. p.Seed roots the per-mix
// seed derivation.
func RunMultiplex(p Params) (*MultiplexResult, error) {
	// Only totals matter here, not the series, so both tools sample at the
	// user-tool floor.
	const period = 10 * ktime.Millisecond
	counts := []int{2, 4, 6, 8}
	script := workload.NewTripleLoopMatmul().Script()
	pool := multiplexPool()
	prof := ProfileFor(PerfStat)

	// Spec layout per mix: one perf-stat run over the whole mix, then one
	// K-LEB run per 4-event chunk for the exact counts.
	type mixPlan struct {
		n      int
		events []isa.Event
		perf   int   // spec index of the perf-stat run
		chunks []int // spec indices of the K-LEB chunk runs
	}
	var specs []session.Spec
	plans := make([]mixPlan, 0, len(counts))
	for i, n := range counts {
		seed := session.DeriveSeed(p.Seed, i)
		events := pool[:n]
		plan := mixPlan{n: n, events: events, perf: len(specs)}
		specs = append(specs, session.Spec{
			Profile:   prof,
			Seed:      seed,
			NewTarget: targetFactory(script),
			NewTool:   toolFactory(PerfStat, 0),
			Config:    monitor.Config{Events: events, Period: period, ExcludeKernel: true},
		})
		for lo := 0; lo < n; lo += 4 {
			hi := lo + 4
			if hi > n {
				hi = n
			}
			plan.chunks = append(plan.chunks, len(specs))
			specs = append(specs, session.Spec{
				Profile:   prof,
				Seed:      seed,
				NewTarget: targetFactory(script),
				NewTool: func() (monitor.Tool, error) {
					return kleb.New(), nil
				},
				Config: monitor.Config{Events: events[lo:hi], Period: period, ExcludeKernel: true},
			})
		}
		plans = append(plans, plan)
	}

	runs, err := runAll(p.Workers, specs)
	if err != nil {
		return nil, err
	}

	res := &MultiplexResult{Workload: WorkloadTriple}
	for _, plan := range plans {
		perf := runs[plan.perf].Result
		exact := make(map[isa.Event]uint64, plan.n)
		for _, ci := range plan.chunks {
			for ev, v := range runs[ci].Result.Totals {
				exact[ev] = v
			}
		}
		sched, err := prof.Events.Schedule(plan.events)
		if err != nil {
			return nil, fmt.Errorf("experiments: multiplex mix of %d: %w", plan.n, err)
		}
		row := MultiplexRow{N: plan.n, Rounds: len(sched.Rounds), Estimated: perf.Estimated}
		for _, ev := range plan.events {
			cell := MultiplexCell{
				Event:    ev,
				Reported: perf.Totals[ev],
				Scale:    1.0,
				Exact:    exact[ev],
			}
			if s, ok := perf.Scale[ev]; ok {
				cell.Scale = s
			}
			if cell.Exact > 0 {
				cell.ErrPct = (float64(cell.Reported) - float64(cell.Exact)) / float64(cell.Exact) * 100
			}
			row.Cells = append(row.Cells, cell)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Check asserts the sweep's physics: mixes within the counter budget count
// exactly (single round, no scaling), the sweep has an oversubscribed mix,
// and every oversubscribed mix both rotates and shows real extrapolation
// error against the exact counts.
func (r *MultiplexResult) Check() error {
	var c claims
	sawOver := false
	for _, row := range r.Rows {
		over := row.N > 4
		sawOver = sawOver || over
		if !over {
			if row.Rounds != 1 {
				c.failf("mix of %d: %d rounds, want 1", row.N, row.Rounds)
			}
			if row.Estimated {
				c.failf("mix of %d: perf stat scaled a mix that fits the counters", row.N)
			}
			for _, cell := range row.Cells {
				if cell.Scale != 1.0 {
					c.failf("mix of %d: %v scaled x%.3f without multiplexing", row.N, cell.Event, cell.Scale)
				}
			}
			continue
		}
		if row.Rounds < 2 {
			c.failf("mix of %d: only %d round for >4 programmable events", row.N, row.Rounds)
		}
		if !row.Estimated {
			c.failf("mix of %d: perf stat did not flag its totals as estimates", row.N)
		}
		scaled := false
		for _, cell := range row.Cells {
			if cell.Scale > 1.0 {
				scaled = true
			}
		}
		if !scaled {
			c.failf("mix of %d: no event carries an enabled/running scale factor", row.N)
		}
		if row.MaxAbsErrPct() == 0 {
			c.failf("mix of %d: scaled estimates match exact counts exactly (implausible)", row.N)
		}
	}
	if !sawOver {
		c.failf("no oversubscribed mix: every mix fits the 4 counters")
	}
	return c.err("multiplex sweep")
}

// Render writes the comparison table plus a pass/fail summary line.
func (r *MultiplexResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Multiplexing error — perf stat scaled estimates vs exact K-LEB counts (%s, 4 programmable counters)\n", r.Workload)
	fmt.Fprintf(w, "%3s %6s  %-31s %15s %8s %15s %9s\n",
		"N", "rounds", "event", "perf-stat", "scale", "exact", "err%")
	for _, row := range r.Rows {
		for i, c := range row.Cells {
			nCol, rCol := "", ""
			if i == 0 {
				nCol = fmt.Sprintf("%d", row.N)
				rCol = fmt.Sprintf("%d", row.Rounds)
			}
			fmt.Fprintf(w, "%3s %6s  %-31s %15d %8.3f %15d %+9.3f\n",
				nCol, rCol, c.Event, c.Reported, c.Scale, c.Exact, c.ErrPct)
		}
	}
	if err := r.Check(); err != nil {
		fmt.Fprintf(w, "FAIL: %v\n", err)
		return
	}
	fmt.Fprintf(w, "PASS: mixes within the counter budget count exactly; oversubscribed mixes rotate and carry estimation error\n")
}
