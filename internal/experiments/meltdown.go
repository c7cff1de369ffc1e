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

// MeltdownSide is the victim-only or victim+attack measurement.
type MeltdownSide struct {
	Name          string
	LLCRefs       float64 // mean per run
	LLCMisses     float64
	Instructions  float64
	MPKI          float64
	MeanSamples   float64 // K-LEB samples per run at 100µs
	MeanElapsed   ktime.Duration
	PerfStatSmpls float64 // samples a 10ms tool gets for the same run
	// Series is one representative run's 100µs time series (Fig 7).
	SeriesEvents []isa.Event
	Series       map[isa.Event][]uint64
}

// MeltdownResult holds both sides.
type MeltdownResult struct {
	Victim MeltdownSide
	Attack MeltdownSide
}

// RunMeltdown regenerates Fig 6 (average LLC references/misses with and
// without the attack, over p.Trials rounds: default 25, the paper uses 100)
// and Fig 7 (the 100µs time series localizing the attack window), plus the
// §IV-C observation that a 10ms tool collects at most one sample of the
// victim.
func RunMeltdown(p Params) (*MeltdownResult, error) {
	rounds := p.trials(25)
	m := workload.NewMeltdown()
	res := &MeltdownResult{}
	var err error
	res.Victim, err = runMeltdownSide(p, rounds, "victim", m.VictimScript())
	if err != nil {
		return nil, err
	}
	res.Attack, err = runMeltdownSide(p, rounds, "victim+meltdown", m.AttackScript())
	if err != nil {
		return nil, err
	}
	return res, nil
}

func runMeltdownSide(p Params, rounds int, name string, script workload.Script) (MeltdownSide, error) {
	// K-LEB's headline rate, which a 10ms tool cannot approach.
	const period = 100 * ktime.Microsecond
	events := []isa.Event{isa.EvLLCRefs, isa.EvLLCMisses, isa.EvInstructions}
	side := MeltdownSide{Name: name, SeriesEvents: events, Series: map[isa.Event][]uint64{}}
	specs := make([]session.Spec, rounds)
	for round := range specs {
		specs[round] = session.Spec{
			Profile:    ProfileFor(KLEB),
			Seed:       p.Seed + uint64(round)*31337,
			TargetName: name,
			NewTarget:  targetFactory(script),
			NewTool:    toolFactory(KLEB, 0),
			Config:     monitor.Config{Events: events, Period: period, ExcludeKernel: true},
		}
	}
	runs, err := runAll(p.Workers, specs)
	if err != nil {
		return side, err
	}
	for round := 0; round < rounds; round++ {
		run := runs[round]
		side.LLCRefs += float64(run.Result.Totals[isa.EvLLCRefs])
		side.LLCMisses += float64(run.Result.Totals[isa.EvLLCMisses])
		side.Instructions += float64(run.Result.Totals[isa.EvInstructions])
		side.MeanSamples += float64(len(run.Result.Samples))
		side.MeanElapsed += run.Elapsed
		if round == 0 {
			for _, ev := range events {
				side.Series[ev] = run.Result.SeriesFor(ev)
			}
		}
	}
	n := float64(rounds)
	side.LLCRefs /= n
	side.LLCMisses /= n
	side.Instructions /= n
	side.MeanSamples /= n
	side.MeanElapsed = ktime.Duration(float64(side.MeanElapsed) / n)
	side.MPKI = side.LLCMisses / (side.Instructions / 1000)
	side.PerfStatSmpls = side.MeanElapsed.Seconds() / (10 * ktime.Millisecond).Seconds()
	return side, nil
}

// Render writes Fig 6/Fig 7 in text form.
func (r *MeltdownResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig 6 — Meltdown comparison (means per run, K-LEB @100µs)")
	fmt.Fprintf(w, "%-18s %14s %14s %10s %10s %12s %14s\n",
		"program", "LLC refs", "LLC misses", "MPKI", "samples", "elapsed", "10ms samples")
	for _, s := range []MeltdownSide{r.Victim, r.Attack} {
		fmt.Fprintf(w, "%-18s %14.0f %14.0f %10.2f %10.1f %12v %14.1f\n",
			s.Name, s.LLCRefs, s.LLCMisses, s.MPKI, s.MeanSamples, s.MeanElapsed, s.PerfStatSmpls)
	}
	fmt.Fprintln(w, "\nFig 7 — 100µs LLC time series (sparklines over sample index)")
	for _, s := range []MeltdownSide{r.Victim, r.Attack} {
		for _, ev := range s.SeriesEvents[:2] {
			fmt.Fprintf(w, "%-18s %-16s |%s|\n", s.Name, ev, trace.Sparkline(s.Series[ev], 64))
		}
	}
}
