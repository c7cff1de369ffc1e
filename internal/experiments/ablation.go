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

// BufferAblationConfig parameterizes the ring-size sweep.
type BufferAblationConfig struct {
	// Sizes are the ring capacities to sweep (defaults: 64 → 4096).
	Sizes []int
	// Seed drives the runs.
	Seed uint64
	// Workers sizes the scheduler's pool (0 = GOMAXPROCS).
	Workers int
}

func (c *BufferAblationConfig) defaults() {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{64, 128, 256, 512, 1024, 4096}
	}
}

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

// RunBufferAblation sweeps the kernel ring size at a fixed 50ms drain
// cadence. Undersized rings trip the buffer-full safety pause (losing
// coverage, not correctness); the default 8192-sample ring keeps the pause
// dormant at 100µs with 50ms drains, which is the design point the module
// ships with.
func RunBufferAblation(cfg BufferAblationConfig) (*BufferAblationResult, error) {
	const drain = 50 * ktime.Millisecond
	cfg.defaults()
	script := workload.Synthetic{
		Name:       "ablation-target",
		TotalInstr: 1_500_000_000, // ~330ms
		BlockInstr: 100_000,
		Footprint:  256 << 10,
	}.Script()
	res := &BufferAblationResult{Period: ablationPeriod, DrainInterval: drain}

	// One batch: the unmonitored baseline plus one run per ring size.
	specs := []session.Spec{baselineSpec(ProfileFor(KLEB), cfg.Seed, script)}
	for _, size := range cfg.Sizes {
		specs = append(specs, session.Spec{
			Profile:   ProfileFor(KLEB),
			Seed:      cfg.Seed,
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
	runs, err := runAll(cfg.Workers, specs)
	if err != nil {
		return nil, err
	}
	base := runs[0]

	for i, size := range cfg.Sizes {
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

// DrainAblationConfig parameterizes the controller-cadence sweep.
type DrainAblationConfig struct {
	// Intervals are the controller drain cadences to sweep.
	Intervals []ktime.Duration
	// Seed drives the runs.
	Seed uint64
	// Workers sizes the scheduler's pool (0 = GOMAXPROCS).
	Workers int
}

func (c *DrainAblationConfig) defaults() {
	if len(c.Intervals) == 0 {
		c.Intervals = []ktime.Duration{
			10 * ktime.Millisecond,
			50 * ktime.Millisecond,
			100 * ktime.Millisecond,
			400 * ktime.Millisecond,
		}
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

// RunDrainAblation sweeps the controller's drain cadence at the default
// ring size: draining too eagerly wastes cycles on wakeups, draining too
// lazily risks the safety pause once the cadence outruns the ring.
func RunDrainAblation(cfg DrainAblationConfig) (*DrainAblationResult, error) {
	cfg.defaults()
	script := workload.Synthetic{
		Name:       "ablation-target",
		TotalInstr: 1_500_000_000,
		BlockInstr: 100_000,
		Footprint:  256 << 10,
	}.Script()
	res := &DrainAblationResult{Period: ablationPeriod}

	// One batch: the unmonitored baseline plus one run per drain cadence.
	specs := []session.Spec{baselineSpec(ProfileFor(KLEB), cfg.Seed, script)}
	for _, interval := range cfg.Intervals {
		specs = append(specs, session.Spec{
			Profile:   ProfileFor(KLEB),
			Seed:      cfg.Seed,
			NewTarget: targetFactory(script),
			NewTool: func() (monitor.Tool, error) {
				tool := kleb.New()
				tool.DrainInterval = interval
				return tool, nil
			},
			Config: monitor.Config{Events: defaultEvents(), Period: ablationPeriod, ExcludeKernel: true},
		})
	}
	runs, err := runAll(cfg.Workers, specs)
	if err != nil {
		return nil, err
	}
	base := runs[0]
	for i, interval := range cfg.Intervals {
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

// Render writes the drain ablation table.
func (r *DrainAblationResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Drain-interval ablation — %v sampling, default ring\n", r.Period)
	fmt.Fprintf(w, "%12s %10s %10s %10s\n", "drain", "collected", "dropped", "overhead%")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%12v %10d %10d %10.2f\n",
			row.Interval, row.Collected, row.Dropped, row.OverheadPct)
	}
}
