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

// LinpackRow is one profiling configuration's Table I entry.
type LinpackRow struct {
	Tool    string // "none" for the unprofiled run
	GFLOPS  float64
	LossPct float64
}

// LinpackResult holds Table I plus the Fig 4 time series.
type LinpackResult struct {
	N      uint64
	Trials int
	Rows   []LinpackRow
	// Series is the Fig 4 data: per-event sample deltas averaged across
	// trials (from the K-LEB runs), in sample order.
	SeriesEvents []isa.Event
	Series       map[isa.Event][]float64
}

// RunLinpack regenerates Table I (GFLOPS under {none, K-LEB, perf stat,
// perf record}) and Fig 4 (the ARITH.MUL / LOAD / STORE phase series
// collected by K-LEB). Each configuration averages p.Trials runs (default
// 10, as in the paper).
func RunLinpack(p Params) (*LinpackResult, error) {
	const (
		n      = 5000                   // the paper's problem size
		period = 10 * ktime.Millisecond // coarse enough for the long run
	)
	trials := p.trials(10)
	lp := workload.NewLinpack(n)
	script := lp.Script()
	flops := float64(lp.Flops())

	events := []isa.Event{isa.EvMulOps, isa.EvLoads, isa.EvStores}
	res := &LinpackResult{
		N: n, Trials: trials,
		SeriesEvents: events,
		Series:       make(map[isa.Event][]float64),
	}

	// One batch covers every configuration: the unprofiled baseline plus one
	// block of trials per tool, all independent runs.
	kinds := []ToolKind{KLEB, PerfStat, PerfRecord}
	var specs []session.Spec
	addBlock := func(kind ToolKind, withTool bool) {
		for trial := 0; trial < trials; trial++ {
			spec := session.Spec{
				Profile:    ProfileFor(KLEB),
				Seed:       p.Seed + uint64(trial)*104729,
				NewTarget:  targetFactory(script),
				TargetName: "linpack",
			}
			if withTool {
				spec.NewTool = toolFactory(kind, 0)
				spec.Config = monitor.Config{Events: events, Period: period, ExcludeKernel: true}
			}
			specs = append(specs, spec)
		}
	}
	addBlock("", false)
	for _, kind := range kinds {
		addBlock(kind, true)
	}
	runs, err := runAll(p.Workers, specs)
	if err != nil {
		return nil, err
	}

	gflopsFor := func(block int) float64 {
		var total float64
		for trial := 0; trial < trials; trial++ {
			total += flops / 1e9 / runs[block*trials+trial].Elapsed.Seconds()
		}
		return total / float64(trials)
	}
	baseGF := gflopsFor(0)
	res.Rows = append(res.Rows, LinpackRow{Tool: "none", GFLOPS: baseGF})
	for ki, kind := range kinds {
		if kind == KLEB {
			for trial := 0; trial < trials; trial++ {
				res.accumulateSeries(runs[(ki+1)*trials+trial].Result)
			}
		}
		gf := gflopsFor(ki + 1)
		res.Rows = append(res.Rows, LinpackRow{
			Tool:    string(kind),
			GFLOPS:  gf,
			LossPct: 100 * (baseGF - gf) / baseGF,
		})
	}
	// Average the accumulated series over the K-LEB trials.
	for _, ev := range events {
		for i := range res.Series[ev] {
			res.Series[ev][i] /= float64(trials)
		}
	}
	return res, nil
}

// accumulateSeries folds one K-LEB run's sample series into the average.
func (r *LinpackResult) accumulateSeries(result monitor.Result) {
	for _, ev := range r.SeriesEvents {
		series := result.SeriesFor(ev)
		acc := r.Series[ev]
		for len(acc) < len(series) {
			acc = append(acc, 0)
		}
		for i, v := range series {
			acc[i] += float64(v)
		}
		r.Series[ev] = acc
	}
}

// Row looks up a Table I row by tool name.
func (r *LinpackResult) Row(tool string) (LinpackRow, bool) {
	for _, row := range r.Rows {
		if row.Tool == tool {
			return row, true
		}
	}
	return LinpackRow{}, false
}

// Render writes Table I and a sparkline rendering of Fig 4.
func (r *LinpackResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Table I — LINPACK (N=%d, %d trials) GFLOPS across profiling tools\n", r.N, r.Trials)
	fmt.Fprintf(w, "%-12s %10s %10s\n", "tool", "GFLOPS", "loss%")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %10.2f %10.2f\n", row.Tool, row.GFLOPS, row.LossPct)
	}
	fmt.Fprintf(w, "\nFig 4 — LINPACK phase behaviour via K-LEB (one char ≈ %d samples)\n",
		maxInt(1, seriesLen(r)/72))
	for _, ev := range r.SeriesEvents {
		ser := make([]uint64, len(r.Series[ev]))
		for i, v := range r.Series[ev] {
			ser[i] = uint64(v)
		}
		fmt.Fprintf(w, "%-24s |%s|\n", ev, trace.Sparkline(ser, 72))
	}
}

func seriesLen(r *LinpackResult) int {
	for _, s := range r.Series {
		return len(s)
	}
	return 0
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
