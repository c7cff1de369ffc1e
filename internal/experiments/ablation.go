package experiments

import (
	"fmt"
	"io"

	"kleb/internal/kleb"
	"kleb/internal/ktime"
	"kleb/internal/monitor"
	"kleb/internal/session"
	"kleb/internal/trace"
	"kleb/internal/workload"
)

// The design-choice ablations DESIGN.md §6 calls out: how large the kernel
// ring buffer must be, and how often the controller should drain it, for
// the safety mechanism to stay dormant at the 100µs headline rate.

// ablationPeriod is both ablations' sampling interval: the 100µs headline
// rate, where the safety mechanism is under the most pressure.
const ablationPeriod = 100 * ktime.Microsecond

// BufferAblationRow is one ring size's outcome.
type BufferAblationRow struct {
	Size int
	// Collected counts samples kept; Dropped counts sampling periods lost
	// to the buffer-full safety pause (collection suspends until the next
	// drain but the period clock keeps running).
	Collected int
	Dropped   uint64
	// CoveragePct is collected samples over the periods the run offered
	// (elapsed/period) — what the safety pauses cost in visibility.
	CoveragePct float64
	// OverheadPct is the run-time overhead at this configuration.
	OverheadPct float64
}

// BufferAblationResult is the sweep output.
type BufferAblationResult struct {
	Period        ktime.Duration
	DrainInterval ktime.Duration
	Rows          []BufferAblationRow
}

// RunBufferAblation sweeps the kernel ring size from 64 to 4096 samples at
// a fixed 50ms drain cadence. Undersized rings trip the buffer-full safety
// pause (losing coverage, not correctness); a large enough ring keeps the
// pause dormant at 100µs with 50ms drains. The shipped 8192-sample ring is
// what RunDrainAblation runs.
func RunBufferAblation(p Params) (*BufferAblationResult, error) {
	const drain = 50 * ktime.Millisecond
	sizes := []int{64, 128, 256, 512, 1024, 4096}
	script := workload.Synthetic{
		Name:       "ablation-target",
		TotalInstr: 1_500_000_000, // ~330ms
		BlockInstr: 100_000,
		Footprint:  256 << 10,
	}.Script()
	res := &BufferAblationResult{Period: ablationPeriod, DrainInterval: drain}

	// One batch: the unmonitored baseline plus one run per ring size.
	specs := []session.Spec{baselineSpec(ProfileFor(KLEB), p.Seed, script)}
	for _, size := range sizes {
		specs = append(specs, session.Spec{
			Profile:   ProfileFor(KLEB),
			Seed:      p.Seed,
			NewTarget: targetFactory(script),
			NewTool: func() (monitor.Tool, error) {
				tool := kleb.New()
				tool.BufferSamples = size
				tool.DrainInterval = drain
				return tool, nil
			},
			Config: monitor.Config{Events: defaultEvents(), Period: ablationPeriod, ExcludeKernel: true},
		})
	}
	runs, err := runAll(p.Workers, specs)
	if err != nil {
		return nil, err
	}
	base := runs[0]

	for i, size := range sizes {
		run := runs[i+1]
		row := BufferAblationRow{
			Size:        size,
			Collected:   len(run.Result.Samples),
			Dropped:     run.Result.Dropped,
			OverheadPct: trace.OverheadPct(base.Elapsed.Seconds(), run.Elapsed.Seconds()),
		}
		if expected := float64(run.Elapsed) / float64(ablationPeriod); expected > 0 {
			row.CoveragePct = 100 * float64(row.Collected) / expected
			if row.CoveragePct > 100 {
				row.CoveragePct = 100
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Check tests the safety mechanism's trade: a 64-sample ring trips the
// pause, coverage grows with ring size to near-full at 4096, and every
// ring keeps collecting.
func (r *BufferAblationResult) Check() error {
	var c claims
	row := func(size int) BufferAblationRow {
		for _, row := range r.Rows {
			if row.Size == size {
				return row
			}
		}
		c.failf("ring %d missing", size)
		return BufferAblationRow{}
	}
	small, big := row(64), row(4096)
	if small.Dropped == 0 {
		c.failf("a 64-sample ring at %v with %v drains must trip the safety pause", r.Period, r.DrainInterval)
	}
	if big.CoveragePct < 85 {
		c.failf("ring %d coverage %.1f%%", big.Size, big.CoveragePct)
	}
	if small.CoveragePct >= big.CoveragePct {
		c.failf("coverage should grow with ring size: %.1f%% at 64, %.1f%% at 4096", small.CoveragePct, big.CoveragePct)
	}
	// Correctness is never sacrificed: every ring keeps collecting.
	for _, row := range r.Rows {
		if row.Collected == 0 {
			c.failf("ring %d collected nothing", row.Size)
		}
	}
	return c.err("buffers")
}

// Render writes the buffer ablation table.
func (r *BufferAblationResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Buffer-size ablation — %v sampling, %v drains (safety-pause behaviour)\n",
		r.Period, r.DrainInterval)
	fmt.Fprintf(w, "%10s %10s %10s %10s %10s\n", "ring", "collected", "dropped", "coverage%", "overhead%")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%10d %10d %10d %10.1f %10.2f\n",
			row.Size, row.Collected, row.Dropped, row.CoveragePct, row.OverheadPct)
	}
}

// DrainAblationRow is one cadence's outcome.
type DrainAblationRow struct {
	Interval    ktime.Duration
	Collected   int
	Dropped     uint64
	OverheadPct float64
}

// DrainAblationResult is the sweep output.
type DrainAblationResult struct {
	Period ktime.Duration
	Rows   []DrainAblationRow
}

// RunDrainAblation sweeps the controller's drain cadence at the shipped
// ring size: draining too eagerly wastes cycles on wakeups, draining too
// lazily risks the safety pause once the cadence outruns the ring.
func RunDrainAblation(p Params) (*DrainAblationResult, error) {
	intervals := []ktime.Duration{
		10 * ktime.Millisecond,
		50 * ktime.Millisecond,
		100 * ktime.Millisecond,
		400 * ktime.Millisecond,
	}
	script := workload.Synthetic{
		Name:       "ablation-target",
		TotalInstr: 1_500_000_000,
		BlockInstr: 100_000,
		Footprint:  256 << 10,
	}.Script()
	res := &DrainAblationResult{Period: ablationPeriod}

	// One batch: the unmonitored baseline plus one run per drain cadence.
	specs := []session.Spec{baselineSpec(ProfileFor(KLEB), p.Seed, script)}
	for _, interval := range intervals {
		specs = append(specs, session.Spec{
			Profile:   ProfileFor(KLEB),
			Seed:      p.Seed,
			NewTarget: targetFactory(script),
			NewTool: func() (monitor.Tool, error) {
				tool := kleb.New()
				tool.DrainInterval = interval
				return tool, nil
			},
			Config: monitor.Config{Events: defaultEvents(), Period: ablationPeriod, ExcludeKernel: true},
		})
	}
	runs, err := runAll(p.Workers, specs)
	if err != nil {
		return nil, err
	}
	base := runs[0]
	for i, interval := range intervals {
		run := runs[i+1]
		res.Rows = append(res.Rows, DrainAblationRow{
			Interval:    interval,
			Collected:   len(run.Result.Samples),
			Dropped:     run.Result.Dropped,
			OverheadPct: trace.OverheadPct(base.Elapsed.Seconds(), run.Elapsed.Seconds()),
		})
	}
	return res, nil
}

// Check tests the cadence trade at the shipped ring: draining every 10ms
// costs more than every 100ms (the wakeup tax), and every cadence whose
// samples per drain fit the ring keeps the safety pause dormant. All four
// do: 400ms drains at 100µs buffer 4000 samples, under 8192.
func (r *DrainAblationResult) Check() error {
	var c claims
	row := func(interval ktime.Duration) DrainAblationRow {
		for _, row := range r.Rows {
			if row.Interval == interval {
				return row
			}
		}
		c.failf("cadence %v missing", interval)
		return DrainAblationRow{}
	}
	eager, mid := row(10*ktime.Millisecond), row(100*ktime.Millisecond)
	if eager.OverheadPct <= mid.OverheadPct {
		c.failf("eager drains should cost more: 10ms=%.2f%% vs 100ms=%.2f%%", eager.OverheadPct, mid.OverheadPct)
	}
	for _, row := range r.Rows {
		if row.Collected == 0 {
			c.failf("cadence %v collected nothing", row.Interval)
		}
		if fits := row.Interval/r.Period <= kleb.DefaultBufferSamples; fits && row.Dropped != 0 {
			c.failf("the shipped %d-sample ring must keep the pause dormant at %v drains, dropped %d periods",
				kleb.DefaultBufferSamples, row.Interval, row.Dropped)
		}
	}
	return c.err("drains")
}

// Render writes the drain ablation table.
func (r *DrainAblationResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Drain-interval ablation — %v sampling, default ring\n", r.Period)
	fmt.Fprintf(w, "%12s %10s %10s %10s\n", "drain", "collected", "dropped", "overhead%")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%12v %10d %10d %10.2f\n",
			row.Interval, row.Collected, row.Dropped, row.OverheadPct)
	}
}
