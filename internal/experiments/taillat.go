package experiments

import (
	"fmt"
	"io"
	"strings"

	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/monitor"
	"kleb/internal/session"
	"kleb/internal/telemetry"
	"kleb/internal/workload"
)

// The tail-latency study measures what each monitoring mechanism does to a
// *served* workload rather than a batch one: the request-serving model
// (internal/workload serve.go) couples its queueing capacity to the
// instructions the target actually retires per unit of virtual time, so a
// tool's overhead — timer IRQs, strategic-point syscalls, competing
// processes, cache pollution — surfaces as lost capacity, higher
// utilization, and an inflated latency tail. Arrivals are paired across
// runs (per-request randomness is reseeded from the request index), so for
// one trial seed every tool serves the identical offered load and the p99
// differences are attributable to the monitor alone. Percentiles are exact
// (telemetry.ExactQuantiles), not log2-bucketed: the effects of interest
// are far below the Histogram's factor-of-two resolution.

// tailLatPeriod is every tool's sampling interval: 10ms, the user-tool
// floor.
const tailLatPeriod = 10 * ktime.Millisecond

// TailLatRow is one monitor's (or baseline's) aggregated outcome within a
// scenario: percentiles over the merged per-trial latency populations.
type TailLatRow struct {
	// Tool is the monitor, or "bare" for an unmonitored baseline.
	Tool string
	// Machine is the profile the runs used (LiMiT needs the patched one).
	Machine string
	// Unsupported carries the attach error when the tool cannot run.
	Unsupported string

	P50, P99, P999, Max ktime.Duration
	// DeltaP99 is P99 minus the same-machine bare P99 (signed: a negative
	// value would mean monitoring shortened the tail, which Check rejects).
	DeltaP99 int64
	// Throughput is completed requests per virtual second, mean of trials.
	Throughput float64

	// Conservation totals, summed over trials.
	Arrivals, Completed, Rejected, InFlightAtEnd, ClonesCancelled uint64
}

// TailLatScenario is one traffic shape's table.
type TailLatScenario struct {
	// Name is "open-loop" or "closed-loop".
	Name string
	// Load describes the generator configuration.
	Load string
	// Rows: the bare baseline(s) first, then one row per tool.
	Rows []TailLatRow
}

// TailLatResult is the complete study output.
type TailLatResult struct {
	Period    ktime.Duration
	Trials    int
	Scenarios []TailLatScenario
}

// RunTailLat runs both traffic scenarios under all five tools: for each of
// p.Trials trial seeds (default 3), one bare run per machine profile and
// one monitored run per tool on the same seed, all serving the identical
// (paired) request sequence. Baselines run as the first scheduler batch
// because the instrumented tools' strategic-point counts are sized from the
// bare elapsed time (as in RunOverhead).
func RunTailLat(p Params) (*TailLatResult, error) {
	const (
		// The closed-loop population: the generator keeps only an
		// aggregate think count, so the population is free.
		users = 2_000_000
		// The closed-loop mean think time, sized so the offered rate
		// matches the open-loop scenario's.
		think = 5300 * ktime.Second
	)
	p.Trials = p.trials(3)
	res := &TailLatResult{Period: tailLatPeriod, Trials: p.Trials}

	open := workload.NewServe()
	closed := workload.NewServe().ClosedLoop(users, think)
	scenarios := []struct {
		name  string
		load  string
		model workload.Serve
	}{
		{"open-loop", fmt.Sprintf("Poisson %g req/s", open.ArrivalsPerSec), open},
		{"closed-loop", fmt.Sprintf("%d users, %v mean think", users, think), closed},
	}
	for _, sc := range scenarios {
		table, err := runTailLatScenario(p, sc.model)
		if err != nil {
			return nil, fmt.Errorf("experiments: taillat %s: %w", sc.name, err)
		}
		table.Name, table.Load = sc.name, sc.load
		res.Scenarios = append(res.Scenarios, *table)
	}
	return res, nil
}

// tailTarget wraps a Serve model into a program factory that also exposes
// the per-run serving stats: specs run concurrently, so each run writes its
// program pointer to its own slot.
func tailTarget(model workload.Serve, seed uint64, slot *[]*workload.ServeProgram, ix int) func() kernel.Program {
	return func() kernel.Program {
		p := model.Program(seed)
		(*slot)[ix] = p
		return p
	}
}

func runTailLatScenario(p Params, model workload.Serve) (*TailLatScenario, error) {
	// The profiles in play: Nehalem, plus LiMiT's patched machine (its
	// kernel is slower, so it gets its own baseline).
	tools := AllTools()
	var profiles []machine.Profile
	seen := map[string]bool{}
	for _, kind := range tools {
		if prof := ProfileFor(kind); !seen[prof.Name] {
			seen[prof.Name] = true
			profiles = append(profiles, prof)
		}
	}

	// Batch 1: bare baselines, one per (profile, trial).
	baseProgs := make([]*workload.ServeProgram, len(profiles)*p.Trials)
	var baseSpecs []session.Spec
	for pi, prof := range profiles {
		for trial := 0; trial < p.Trials; trial++ {
			ix := pi*p.Trials + trial
			baseSpecs = append(baseSpecs, session.Spec{
				Profile:    prof,
				Seed:       session.DeriveSeed(p.Seed, trial),
				TargetName: model.Name,
				NewTarget:  tailTarget(model, session.DeriveSeed(p.Seed, trial), &baseProgs, ix),
			})
		}
	}
	baseRuns, err := runAll(p.Workers, baseSpecs)
	if err != nil {
		return nil, err
	}

	table := &TailLatScenario{}
	bareP99 := map[string]ktime.Duration{}
	for pi, prof := range profiles {
		row := TailLatRow{Tool: "bare", Machine: prof.Name}
		var lat telemetry.ExactQuantiles
		var tput float64
		for trial := 0; trial < p.Trials; trial++ {
			st := baseProgs[pi*p.Trials+trial].Stats()
			foldStats(&row, &lat, st)
			tput += st.Throughput()
		}
		fillRow(&row, &lat, tput, p.Trials)
		bareP99[prof.Name] = row.P99
		table.Rows = append(table.Rows, row)
	}

	// Batch 2: one monitored run per (tool, trial), paired on the trial
	// seed. Strategic-point counts match what a timer tool at Period
	// collects over the same-profile bare elapsed time.
	toolProgs := make([]*workload.ServeProgram, len(tools)*p.Trials)
	profIx := map[string]int{}
	for pi, prof := range profiles {
		profIx[prof.Name] = pi
	}
	var specs []session.Spec
	for ki, kind := range tools {
		prof := ProfileFor(kind)
		for trial := 0; trial < p.Trials; trial++ {
			base := baseRuns[profIx[prof.Name]*p.Trials+trial].Elapsed
			ix := ki*p.Trials + trial
			specs = append(specs, session.Spec{
				Profile:    prof,
				Seed:       session.DeriveSeed(p.Seed, trial),
				TargetName: model.Name,
				NewTarget:  tailTarget(model, session.DeriveSeed(p.Seed, trial), &toolProgs, ix),
				NewTool:    toolFactory(kind, pointsFor(base, tailLatPeriod)),
				Config:     monitor.Config{Events: defaultEvents(), Period: tailLatPeriod, ExcludeKernel: true},
			})
		}
	}
	outs := session.Scheduler{Workers: p.Workers}.Run(specs)

	for ki, kind := range tools {
		prof := ProfileFor(kind)
		row := TailLatRow{Tool: string(kind), Machine: prof.Name}
		var lat telemetry.ExactQuantiles
		var tput float64
		for trial := 0; trial < p.Trials; trial++ {
			o := outs[ki*p.Trials+trial]
			if o.Err != nil {
				// A tool that cannot run this configuration fails on its
				// first trial; any later failure is a real error.
				if trial == 0 {
					row.Unsupported = o.Err.Error()
					break
				}
				return nil, o.Err
			}
			st := toolProgs[ki*p.Trials+trial].Stats()
			foldStats(&row, &lat, st)
			tput += st.Throughput()
		}
		if row.Unsupported == "" {
			fillRow(&row, &lat, tput, p.Trials)
			row.DeltaP99 = int64(row.P99) - int64(bareP99[prof.Name])
		}
		table.Rows = append(table.Rows, row)
	}
	return table, nil
}

// foldStats accumulates one run's serving outcome into a row.
func foldStats(row *TailLatRow, lat *telemetry.ExactQuantiles, st *workload.ServeStats) {
	row.Arrivals += st.Arrivals
	row.Completed += st.Completed
	row.Rejected += st.Rejected
	row.InFlightAtEnd += st.InFlightAtEnd
	row.ClonesCancelled += st.ClonesCancelled
	lat.Merge(&st.Latency)
}

// fillRow computes the row's percentile and throughput summary.
func fillRow(row *TailLatRow, lat *telemetry.ExactQuantiles, tputSum float64, trials int) {
	row.P50 = ktime.Duration(lat.Quantile(0.5))
	row.P99 = ktime.Duration(lat.Quantile(0.99))
	row.P999 = ktime.Duration(lat.Quantile(0.999))
	row.Max = ktime.Duration(lat.Max())
	row.Throughput = tputSum / float64(trials)
}

// row looks up a tool's row within a scenario.
func (s *TailLatScenario) row(tool string) (TailLatRow, bool) {
	for _, r := range s.Rows {
		if r.Tool == tool {
			return r, true
		}
	}
	return TailLatRow{}, false
}

// Check asserts the study's invariants: request conservation with no
// admission rejections, monotone percentiles, no tool *shortening* the
// tail, and the paper's headline ordering — K-LEB's p99 inflation strictly
// below perf stat's and PAPI's.
func (r *TailLatResult) Check() error {
	var bad []string
	for _, sc := range r.Scenarios {
		for _, row := range sc.Rows {
			if row.Unsupported != "" {
				continue
			}
			if row.Arrivals != row.Completed+row.Rejected+row.InFlightAtEnd {
				bad = append(bad, fmt.Sprintf("%s/%s: %d arrivals != %d completed + %d rejected + %d in flight",
					sc.Name, row.Tool, row.Arrivals, row.Completed, row.Rejected, row.InFlightAtEnd))
			}
			if row.Rejected != 0 {
				bad = append(bad, fmt.Sprintf("%s/%s: %d admission rejections (load is miscalibrated)", sc.Name, row.Tool, row.Rejected))
			}
			if row.P50 > row.P99 || row.P99 > row.P999 || row.P999 > row.Max {
				bad = append(bad, fmt.Sprintf("%s/%s: percentiles not monotone: p50=%v p99=%v p999=%v max=%v",
					sc.Name, row.Tool, row.P50, row.P99, row.P999, row.Max))
			}
			if row.Tool != "bare" && row.DeltaP99 < 0 {
				bad = append(bad, fmt.Sprintf("%s/%s: monitoring shortened the tail (Δp99 = %dns)", sc.Name, row.Tool, row.DeltaP99))
			}
		}
		kleb, haveK := sc.row(string(KLEB))
		if !haveK || kleb.Unsupported != "" {
			continue
		}
		for _, other := range []ToolKind{PerfStat, PAPI} {
			o, ok := sc.row(string(other))
			if !ok || o.Unsupported != "" {
				continue
			}
			if kleb.DeltaP99 >= o.DeltaP99 {
				bad = append(bad, fmt.Sprintf("%s: K-LEB Δp99 (%dns) not strictly below %s's (%dns)",
					sc.Name, kleb.DeltaP99, other, o.DeltaP99))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("tail-latency study: %d violations:\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}

// Render writes the per-scenario tables plus a pass/fail summary line.
func (r *TailLatResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Tail latency under monitoring — 3-tier serve workload, exact percentiles (period %v, %d trials)\n",
		r.Period, r.Trials)
	for _, sc := range r.Scenarios {
		fmt.Fprintf(w, "== %s (%s) ==\n", sc.Name, sc.Load)
		fmt.Fprintf(w, "%-11s %-20s %11s %11s %11s %11s %11s %9s %9s %9s\n",
			"tool", "machine", "p50(ms)", "p99(ms)", "p999(ms)", "max(ms)", "Δp99", "req/s", "completed", "cancelled")
		for _, row := range sc.Rows {
			if row.Unsupported != "" {
				fmt.Fprintf(w, "%-11s %-20s n/a — %s\n", row.Tool, row.Machine, row.Unsupported)
				continue
			}
			delta := "—"
			if row.Tool != "bare" {
				delta = fmt.Sprintf("%+.3fms", float64(row.DeltaP99)/1e6)
			}
			fmt.Fprintf(w, "%-11s %-20s %11.3f %11.3f %11.3f %11.3f %11s %9.1f %9d %9d\n",
				row.Tool, row.Machine,
				row.P50.Milliseconds(), row.P99.Milliseconds(),
				row.P999.Milliseconds(), row.Max.Milliseconds(),
				delta, row.Throughput, row.Completed, row.ClonesCancelled)
		}
	}
	if err := r.Check(); err != nil {
		fmt.Fprintf(w, "FAIL: %v\n", err)
		return
	}
	fmt.Fprintf(w, "PASS: requests conserved with no rejections; K-LEB inflates p99 strictly less than perf stat and PAPI in both scenarios\n")
}
