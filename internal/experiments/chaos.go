package experiments

import (
	"fmt"
	"io"
	"strings"

	"kleb/internal/fault"
	"kleb/internal/kleb"
	"kleb/internal/ktime"
	"kleb/internal/monitor"
	"kleb/internal/session"
	"kleb/internal/workload"
)

// The chaos sweep is the fault layer's proof obligation (DESIGN.md §9): run
// a real workload under many seeded fault plans and assert that (a) the
// hardened controller terminates every run, clean or degraded, and (b) the
// module's period ledger stays conserved — every timer firing is accounted
// as captured, dropped or lost-to-fault, and every captured sample is
// either drained or still buffered. A fault layer that only sometimes
// loses data silently would fail (b); a controller that can still be hung
// by a fault would fail (a).

// ChaosRow is one fault plan's outcome.
type ChaosRow struct {
	Index int
	Seed  uint64
	// The module's period ledger (see kleb.Accounting).
	Fires     uint64
	Captured  uint64
	Dropped   uint64
	LostFault uint64
	// Drained is how many samples reached the controller; Buffered is what
	// was still in the ring when the run ended.
	Drained  int
	Buffered int
	// Degraded marks partial-data runs; Fault is the first unrecoverable
	// fault ("" when clean); Retries counts transient-retry recoveries.
	Degraded bool
	Fault    string
	Retries  uint64
	// CtlExited reports the controller process reached an exit.
	CtlExited bool
	// Err is a run-infrastructure failure (target never exited); always ""
	// when the hardening holds.
	Err string
}

// Balanced reports the period-conservation invariant: every timer firing
// landed in exactly one bucket.
func (r ChaosRow) Balanced() bool {
	return r.Fires == r.Captured+r.Dropped+r.LostFault
}

// OK reports the row passed every chaos assertion.
func (r ChaosRow) OK() bool {
	return r.Err == "" && r.CtlExited && r.Balanced() &&
		uint64(r.Drained+r.Buffered) == r.Captured
}

// ChaosResult is the sweep output.
type ChaosResult struct {
	Workload Workload
	Rows     []ChaosRow
}

// RunChaos sweeps p.Trials fault plans (default 32), derived from p.Seed,
// over K-LEB at 100µs monitoring the Table II matmul. Every run gets a
// private plan (plans carry mutable decision state) and a private seed, so
// the sweep is deterministic for given Params at any worker count.
func RunChaos(p Params) (*ChaosResult, error) {
	const (
		period = 100 * ktime.Microsecond
		// A deliberately small ring, so plans that slow draining actually
		// exercise the safety pause.
		buffer = 512
		drain  = 50 * ktime.Millisecond
		// Caps each run's simulated time so even a hypothetical controller
		// hang cannot stall the sweep.
		limit = 5 * ktime.Second
	)
	script := workload.NewTripleLoopMatmul().Script()
	plans := p.trials(32)
	specs := make([]session.Spec, plans)
	seeds := make([]uint64, plans)
	for i := range specs {
		seed := session.DeriveSeed(p.Seed, i)
		seeds[i] = seed
		specs[i] = session.Spec{
			Profile:   ProfileFor(KLEB),
			Seed:      seed,
			NewTarget: targetFactory(script),
			NewTool: func() (monitor.Tool, error) {
				tool := kleb.New()
				tool.BufferSamples = buffer
				tool.DrainInterval = drain
				return tool, nil
			},
			Config: monitor.Config{Events: defaultEvents(), Period: period, ExcludeKernel: true},
			Limit:  limit,
			Faults: fault.FromSeed(seed),
		}
	}
	outs := session.Scheduler{Workers: p.Workers}.Run(specs)

	res := &ChaosResult{Workload: WorkloadTriple}
	for i, out := range outs {
		row := ChaosRow{Index: i, Seed: seeds[i]}
		if out.Err != nil {
			// Not fatal for the sweep: the row records the failure and
			// Check reports it, preserving the other rows' evidence.
			row.Err = out.Err.Error()
			res.Rows = append(res.Rows, row)
			continue
		}
		run := out.Run
		tool, ok := run.Tool.(*kleb.Tool)
		if !ok {
			row.Err = fmt.Sprintf("run %d tool is %T, want *kleb.Tool", i, run.Tool)
			res.Rows = append(res.Rows, row)
			continue
		}
		acc := tool.Accounting()
		row.Fires = acc.Fires
		row.Captured = acc.Captured
		row.Dropped = acc.Dropped
		row.LostFault = acc.LostFault
		row.Buffered = acc.Buffered
		row.Drained = len(run.Result.Samples)
		row.Degraded = run.Result.Degraded
		row.Fault = run.Result.Fault
		row.Retries = tool.Retries()
		row.CtlExited = tool.ControllerExited()
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Check returns an error describing every row that violated a chaos
// assertion, or nil when the sweep is clean.
func (r *ChaosResult) Check() error {
	var bad []string
	for _, row := range r.Rows {
		if row.OK() {
			continue
		}
		switch {
		case row.Err != "":
			bad = append(bad, fmt.Sprintf("seed %#x: run failed: %s", row.Seed, row.Err))
		case !row.CtlExited:
			bad = append(bad, fmt.Sprintf("seed %#x: controller never exited", row.Seed))
		case !row.Balanced():
			bad = append(bad, fmt.Sprintf("seed %#x: ledger unbalanced: fires=%d captured=%d dropped=%d lost=%d",
				row.Seed, row.Fires, row.Captured, row.Dropped, row.LostFault))
		default:
			bad = append(bad, fmt.Sprintf("seed %#x: samples leaked: drained=%d buffered=%d captured=%d",
				row.Seed, row.Drained, row.Buffered, row.Captured))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("chaos sweep: %d/%d runs violated invariants:\n  %s",
			len(bad), len(r.Rows), strings.Join(bad, "\n  "))
	}
	return nil
}

// Degraded counts rows that finished with partial data.
func (r *ChaosResult) Degraded() int {
	n := 0
	for _, row := range r.Rows {
		if row.Degraded {
			n++
		}
	}
	return n
}

// Render writes the sweep table plus a pass/fail summary line.
func (r *ChaosResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Chaos sweep — %s under %d seeded fault plans (invariant: fires = captured + dropped + lost)\n",
		r.Workload, len(r.Rows))
	fmt.Fprintf(w, "%4s %18s %8s %9s %8s %6s %8s %9s %8s %5s  %s\n",
		"run", "seed", "fires", "captured", "dropped", "lost", "drained", "buffered", "retries", "ok", "fault")
	for _, row := range r.Rows {
		fault := row.Fault
		if row.Err != "" {
			fault = "RUN: " + row.Err
		}
		fmt.Fprintf(w, "%4d %#18x %8d %9d %8d %6d %8d %9d %8d %5v  %s\n",
			row.Index, row.Seed, row.Fires, row.Captured, row.Dropped, row.LostFault,
			row.Drained, row.Buffered, row.Retries, row.OK(), fault)
	}
	if err := r.Check(); err != nil {
		fmt.Fprintf(w, "FAIL: %v\n", err)
		return
	}
	fmt.Fprintf(w, "PASS: %d/%d runs conserved all periods (%d degraded, data still accounted)\n",
		len(r.Rows), len(r.Rows), r.Degraded())
}
