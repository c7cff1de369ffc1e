package experiments

import (
	"fmt"
	"io"

	"kleb/internal/anomaly"
	"kleb/internal/isa"
	"kleb/internal/kleb"
	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/monitor"
	"kleb/internal/session"
	"kleb/internal/workload"
)

// Online contention detection across cores: K-LEB watches an LLC-resident
// container on core 0 while, mid-run, a streaming neighbour starts on
// core 1 of the same socket. The victim's MPKI series jumps the moment the
// neighbour begins evicting its working set — the live signal a
// contention-aware scheduler (§IV-B) would act on, observable only because
// the sampling is fast enough to catch it in flight.

// ContentionResult is the study's outcome.
type ContentionResult struct {
	// VictimSamples is the victim's collected series (MPKI derivable).
	Events []isa.Event
	// BeforeMPKI and AfterMPKI are the victim's mean MPKI before and after
	// the neighbour starts.
	BeforeMPKI, AfterMPKI float64
	// NeighbourStart is when the stream began.
	NeighbourStart ktime.Time
	// DetectedAt is when a CUSUM detector over the victim's LLC misses
	// first flags (zero = never).
	DetectedAt ktime.Time
	// Latency is DetectedAt - NeighbourStart.
	Latency ktime.Duration
}

// RunContention performs the study at a 1ms sampling period. It is one
// cluster run, so it ignores p.Workers.
func RunContention(p Params) (*ContentionResult, error) {
	events := []isa.Event{isa.EvLLCMisses, isa.EvInstructions}
	tool := kleb.New()
	start := ktime.Time(700 * ktime.Millisecond)
	_, err := session.RunCluster(session.ClusterSpec{
		Profile: ProfileFor(KLEB),
		Seed:    p.Seed,
		Cores:   2,
		Place: func(cores []*machine.Machine) error {
			// Victim: the LLC-resident container, monitored by K-LEB on
			// core 0.
			img, _ := workload.ImageByName("mysql")
			_, err := session.StartTarget(cores[0], "mysql", img.ScriptAt(0).Program(), tool, monitor.Config{
				Events: events, Period: ktime.Millisecond, ExcludeKernel: true,
			})
			return err
		},
		Drive: func(c *machine.Cluster) error {
			// Run the socket until the victim is half done, then unleash
			// the streaming neighbour on core 1.
			if err := c.Run(ktime.Duration(start)); err != nil {
				return err
			}
			stream := workload.Synthetic{
				Name:       "stream",
				TotalInstr: 2_500_000_000,
				BlockInstr: 400_000,
				LoadsPerK:  350,
				Footprint:  64 << 20,
			}.Script()
			c.Cores()[1].Kernel().Spawn("stream", stream.Program())
			return c.Run(0)
		},
	})
	if err != nil {
		return nil, err
	}

	result := tool.Collect()
	res := &ContentionResult{Events: events, NeighbourStart: start}

	// Split the victim's MPKI series at the neighbour start.
	var bMiss, bInstr, aMiss, aInstr float64
	for _, s := range result.Samples {
		if s.Time < start {
			bMiss += float64(s.Deltas[0])
			bInstr += float64(s.Deltas[1])
		} else {
			aMiss += float64(s.Deltas[0])
			aInstr += float64(s.Deltas[1])
		}
	}
	if bInstr > 0 {
		res.BeforeMPKI = bMiss / (bInstr / 1000)
	}
	if aInstr > 0 {
		res.AfterMPKI = aMiss / (aInstr / 1000)
	}

	// Online detection with a CUSUM over the LLC miss rate.
	det, err := anomaly.NewCUSUMDetector(events, isa.EvLLCMisses)
	if err != nil {
		return nil, err
	}
	// Warm-up must cover the victim's cold start so only the neighbour's
	// arrival registers as a change.
	det.Warmup = 400
	rep := anomaly.Scan(det, result.Samples)
	res.DetectedAt = rep.FirstFlag
	if res.DetectedAt > res.NeighbourStart {
		res.Latency = res.DetectedAt.Sub(res.NeighbourStart)
	}
	return res, nil
}

// Check tests that the sibling stream visibly raises the victim's miss
// rate and that the online detector flags it after the neighbour starts,
// quickly enough for a scheduler to react.
func (r *ContentionResult) Check() error {
	var c claims
	if r.AfterMPKI < 1.4*r.BeforeMPKI {
		c.failf("no contention visible: before %.2f after %.2f", r.BeforeMPKI, r.AfterMPKI)
	}
	if r.DetectedAt <= r.NeighbourStart {
		c.failf("flag at %v precedes the neighbour at %v", r.DetectedAt, r.NeighbourStart)
	} else if r.Latency > 100*ktime.Millisecond {
		c.failf("detection latency %v too slow to act on", r.Latency)
	}
	return c.err("contention")
}

// Render writes the study summary.
func (r *ContentionResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Cross-core contention detection — K-LEB on the victim, stream on the sibling core")
	fmt.Fprintf(w, "victim MPKI before neighbour: %8.2f\n", r.BeforeMPKI)
	fmt.Fprintf(w, "victim MPKI after neighbour:  %8.2f\n", r.AfterMPKI)
	fmt.Fprintf(w, "neighbour started at %v; CUSUM flagged at %v (latency %v)\n",
		r.NeighbourStart, r.DetectedAt, r.Latency)
}
