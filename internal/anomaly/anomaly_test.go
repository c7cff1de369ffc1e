package anomaly

import (
	"testing"

	"kleb/internal/isa"
	"kleb/internal/kernel"
	"kleb/internal/kleb"
	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/monitor"
	"kleb/internal/session"
	"kleb/internal/workload"
)

var meltdownEvents = []isa.Event{isa.EvLLCRefs, isa.EvLLCMisses, isa.EvInstructions}

// collect runs a workload under K-LEB at 100µs and returns the stream.
func collect(t *testing.T, script workload.Script, seed uint64) []monitor.Sample {
	t.Helper()
	prof := machine.Nehalem()
	prof.Costs.NoiseRel = 0
	prof.Costs.TimerJitterRel = 0
	prof.Costs.RunNoiseRel = 0
	res, err := session.Run(session.Spec{
		Profile:   prof,
		Seed:      seed,
		NewTarget: func() kernel.Program { return script.Program() },
		NewTool:   func() (monitor.Tool, error) { return kleb.New(), nil },
		Config: monitor.Config{
			Events: meltdownEvents, Period: 100 * ktime.Microsecond, ExcludeKernel: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Result.Samples
}

func synthSamples(n int, misses, instr uint64) []monitor.Sample {
	out := make([]monitor.Sample, n)
	for i := range out {
		out[i] = monitor.Sample{
			Time:   ktime.Time(i+1) * ktime.Time(100*ktime.Microsecond),
			Deltas: []uint64{misses * 3, misses, instr},
		}
	}
	return out
}

func TestMPKIDetectorFlagsStep(t *testing.T) {
	d, err := NewMPKIDetector(meltdownEvents)
	if err != nil {
		t.Fatal(err)
	}
	stream := append(synthSamples(40, 100, 1_000_000), synthSamples(20, 2000, 1_000_000)...)
	rep := Scan(d, stream)
	if rep.Flagged == 0 {
		t.Fatal("20× MPKI step not flagged")
	}
	// Nothing flagged before the step.
	for i, v := range rep.Verdicts[:40] {
		if v.Anomalous {
			t.Fatalf("false positive at clean window %d", i)
		}
	}
	// Detection latency: within a few windows of the change at sample 40.
	changeAt := stream[40].Time
	if rep.FirstFlag.Sub(changeAt) > 300*ktime.Microsecond {
		t.Errorf("detection latency %v", rep.FirstFlag.Sub(changeAt))
	}
}

func TestMPKIDetectorBaselineNotPoisoned(t *testing.T) {
	d, _ := NewMPKIDetector(meltdownEvents)
	// Long sustained attack after a short clean prefix: the detector must
	// keep flagging to the end (anomalous windows don't train the baseline).
	stream := append(synthSamples(20, 100, 1_000_000), synthSamples(200, 2000, 1_000_000)...)
	rep := Scan(d, stream)
	tail := rep.Verdicts[len(rep.Verdicts)-10:]
	for _, v := range tail {
		if !v.Anomalous {
			t.Fatal("sustained attack stopped being flagged: baseline poisoned")
		}
	}
}

func TestMPKIDetectorNeedsEvents(t *testing.T) {
	if _, err := NewMPKIDetector([]isa.Event{isa.EvLoads}); err == nil {
		t.Error("missing events should be rejected")
	}
}

func TestRatioDetector(t *testing.T) {
	d, err := NewRatioDetector(meltdownEvents)
	if err != nil {
		t.Fatal(err)
	}
	d.Skip = 1
	// refs=3×misses → ratio 0.33: clean.
	d.Observe(monitor.Sample{Deltas: []uint64{3000, 1000, 1_000_000}}) // grace window
	clean := d.Observe(monitor.Sample{Deltas: []uint64{3000, 1000, 1_000_000}})
	if clean.Anomalous {
		t.Error("ratio 0.33 flagged")
	}
	// Flush+Reload-like: every reference misses.
	hot := d.Observe(monitor.Sample{Deltas: []uint64{1000, 950, 100_000}})
	if !hot.Anomalous {
		t.Errorf("ratio %.2f not flagged", hot.Score)
	}
	// Windows with too few references are skipped.
	idle := d.Observe(monitor.Sample{Deltas: []uint64{10, 10, 1000}})
	if idle.Anomalous {
		t.Error("idle window should be skipped")
	}
}

func TestCUSUMDetectsGentleDrift(t *testing.T) {
	d, err := NewCUSUMDetector(meltdownEvents, isa.EvLLCMisses)
	if err != nil {
		t.Fatal(err)
	}
	// A +40% shift — too small for a 3× threshold rule, caught by CUSUM
	// accumulation.
	stream := append(synthSamples(30, 1000, 1_000_000), synthSamples(40, 1400, 1_000_000)...)
	rep := Scan(d, stream)
	if rep.Flagged == 0 {
		t.Fatal("CUSUM missed a sustained 1.4× shift")
	}
	for i, v := range rep.Verdicts[:30] {
		if v.Anomalous {
			t.Fatalf("false positive at clean window %d", i)
		}
	}
	// An MPKI threshold detector at 3× would (correctly, per its contract)
	// stay silent on the same stream.
	md, _ := NewMPKIDetector(meltdownEvents)
	if mrep := Scan(md, stream); mrep.Flagged != 0 {
		t.Error("threshold detector unexpectedly fired on a 1.4× shift")
	}
}

func TestCUSUMReset(t *testing.T) {
	d, _ := NewCUSUMDetector(meltdownEvents, isa.EvLLCMisses)
	Scan(d, synthSamples(50, 1000, 1_000_000))
	d.Reset()
	rep := Scan(d, synthSamples(20, 1000, 1_000_000))
	if rep.Flagged != 0 {
		t.Error("reset detector fired on its own baseline")
	}
}

func TestDetectsMeltdownEndToEnd(t *testing.T) {
	// The paper's scenario on the full stack: learn on the clean victim,
	// then judge the attack run. The attack must be flagged while the
	// victim alone stays clean.
	m := workload.NewMeltdown()

	victim := collect(t, m.VictimScript(), 3)
	attack := collect(t, m.AttackScript(), 3)

	ratio, err := NewRatioDetector(meltdownEvents)
	if err != nil {
		t.Fatal(err)
	}
	vrep := Scan(ratio, victim)
	ratio.Reset()
	arep := Scan(ratio, attack)

	if arep.Flagged == 0 {
		t.Fatal("Flush+Reload not flagged by the miss/ref ratio detector")
	}
	if arep.FlagFraction() <= 2*vrep.FlagFraction() {
		t.Errorf("attack flag fraction %.2f vs victim %.2f — no separation",
			arep.FlagFraction(), vrep.FlagFraction())
	}
	// Online detection: the first flag lands while the program is still
	// running (well before its exit), which is only possible at 100µs.
	last := attack[len(attack)-1].Time
	if arep.FirstFlag == 0 || arep.FirstFlag >= last {
		t.Errorf("no in-flight detection: first flag %v, run end %v", arep.FirstFlag, last)
	}
}

func TestScanEmptyStream(t *testing.T) {
	d, _ := NewRatioDetector(meltdownEvents)
	rep := Scan(d, nil)
	if rep.Flagged != 0 || len(rep.Verdicts) != 0 || rep.FlagFraction() != 0 {
		t.Error("empty stream should produce an empty report")
	}
}

func TestEvaluateSeparatesMeltdown(t *testing.T) {
	m := workload.NewMeltdown()
	clean := collect(t, m.VictimScript(), 3)
	attack := collect(t, m.AttackScript(), 3)

	ratio, err := NewRatioDetector(meltdownEvents)
	if err != nil {
		t.Fatal(err)
	}
	// The false-positive rate is the clean stream's flag fraction, the
	// true-positive rate the attack stream's (the whole attack run counts
	// as positive).
	rates := func() (fpr, tpr float64) {
		ratio.Reset()
		fpr = Scan(ratio, clean).FlagFraction()
		ratio.Reset()
		return fpr, Scan(ratio, attack).FlagFraction()
	}
	fpr, tpr := rates()
	if fpr > 0.05 {
		t.Errorf("FPR %.2f on the clean victim", fpr)
	}
	if tpr < 0.3 {
		t.Errorf("TPR %.2f on the attack stream", tpr)
	}
	if tpr-fpr < 0.3 {
		t.Errorf("separation %.2f", tpr-fpr)
	}
	// Reset must clear all state: scoring again gives identical numbers.
	if fpr2, tpr2 := rates(); fpr2 != fpr || tpr2 != tpr {
		t.Error("the detector is stateful across Reset")
	}
}

func TestWindowedEvaluationHeartbleedGroundTruth(t *testing.T) {
	// The Heartbleed workload knows exactly which requests were malicious;
	// score the CUSUM detector against that ground truth on the real
	// collected stream. The burst occupies requests [150,210) of 300, i.e.
	// roughly the middle of the run in time.
	hb := workload.NewHeartbleed()
	stream := collect(t, hb.AttackScript(), 9)
	clean := collect(t, hb.ServerScript(), 9)

	// Derive the burst's time window from the benign request cost: the
	// first AttackStart requests of the attack run are identical to the
	// clean run's, and the trailing (Requests-AttackEnd) requests follow
	// the burst.
	cleanEnd := clean[len(clean)-1].Time
	perReq := uint64(cleanEnd) / uint64(hb.Requests)
	attackEnd := stream[len(stream)-1].Time
	start := ktime.Time(uint64(hb.AttackStart) * perReq)
	end := attackEnd - ktime.Time(uint64(hb.Requests-hb.AttackEnd)*perReq)

	d, err := NewCUSUMDetector(meltdownEvents, isa.EvLLCMisses)
	if err != nil {
		t.Fatal(err)
	}
	d.Warmup = 30
	// Flags inside [start, end) are true positives, flags outside it false
	// positives of the same run.
	var in, out, inFlag, outFlag int
	var latency ktime.Duration
	detected := false
	for _, v := range Scan(d, stream).Verdicts {
		if v.Time < start || v.Time >= end {
			out++
			if v.Anomalous {
				outFlag++
			}
			continue
		}
		in++
		if v.Anomalous {
			inFlag++
			if !detected {
				detected, latency = true, v.Time.Sub(start)
			}
		}
	}
	if !detected {
		t.Fatal("burst not detected inside its ground-truth window")
	}
	inRate := float64(inFlag) / float64(in)
	outRate := float64(outFlag) / float64(max(out, 1))
	// A CUSUM alarm is sticky by design (it decays, not resets, after the
	// shift ends), so some post-window spill is expected — but the
	// in-window rate must dominate and detection must come early in the
	// window.
	if inRate <= outRate {
		t.Errorf("no separation: in %.2f out %.2f", inRate, outRate)
	}
	if inRate < 0.5 {
		t.Errorf("in-window rate %.2f", inRate)
	}
	if span := end.Sub(start); latency > span/2 {
		t.Errorf("detected at %v into a %v window", latency, span)
	}
}
