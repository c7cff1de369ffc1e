// Package tools_test exercises the four baseline monitors head to head on
// the shared harness; the per-tool behaviours (timer clamping, sampling
// estimation, instrumentation requirements, kernel-patch requirements) each
// get focused coverage.
package tools_test

import (
	"strings"
	"testing"

	"kleb/internal/isa"
	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/monitor"
	"kleb/internal/session"
	"kleb/internal/tools/limit"
	"kleb/internal/tools/papi"
	"kleb/internal/tools/perfrecord"
	"kleb/internal/tools/perfstat"
	"kleb/internal/workload"
)

func quietProfile() machine.Profile {
	p := machine.Nehalem()
	p.Costs.NoiseRel = 0
	p.Costs.TimerJitterRel = 0
	p.Costs.RunNoiseRel = 0
	return p
}

func quietLimitProfile() machine.Profile {
	p := machine.LiMiTKernel()
	p.Costs.NoiseRel = 0
	p.Costs.TimerJitterRel = 0
	p.Costs.RunNoiseRel = 0
	return p
}

func script(instr uint64) workload.Script {
	return workload.Synthetic{
		Name:       "target",
		TotalInstr: instr,
		BlockInstr: 200_000,
		Footprint:  256 << 10,
	}.Script()
}

func run(t *testing.T, prof machine.Profile, s workload.Script, tool monitor.Tool, cfg monitor.Config) *session.Result {
	t.Helper()
	spec := session.Spec{
		Profile:   prof,
		Seed:      11,
		NewTarget: func() kernel.Program { return s.Program() },
		Config:    cfg,
	}
	if tool != nil {
		spec.NewTool = session.Use(tool)
	}
	res, err := session.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func stdEvents() []isa.Event {
	return []isa.Event{isa.EvInstructions, isa.EvLoads, isa.EvStores, isa.EvBranches}
}

// --- perf stat ---

func TestPerfStatClampsSubJiffyPeriods(t *testing.T) {
	tool := perfstat.New()
	s := script(400_000_000)
	res := run(t, quietProfile(), s, tool, monitor.Config{
		Events: stdEvents(), Period: 100 * ktime.Microsecond, ExcludeKernel: true,
	})
	if tool.EffectivePeriod() != 10*ktime.Millisecond {
		t.Errorf("requested 100µs must clamp to the 10ms jiffy, got %v", tool.EffectivePeriod())
	}
	// Sample count reflects the clamped rate, not the request.
	want := int(res.Elapsed / (10 * ktime.Millisecond))
	if got := len(res.Result.Samples); got > want+2 {
		t.Errorf("got %d samples — sampled faster than the jiffy allows (≈%d)", got, want)
	}
}

func TestPerfStatCountsExactly(t *testing.T) {
	s := script(300_000_000)
	res := run(t, quietProfile(), s, perfstat.New(), monitor.Config{
		Events: stdEvents(), Period: 10 * ktime.Millisecond, ExcludeKernel: true,
	})
	if got := res.Result.Totals[isa.EvInstructions]; got != s.TotalInstr() {
		t.Errorf("instructions %d != %d", got, s.TotalInstr())
	}
	if res.Result.Estimated {
		t.Error("4 programmable events fit the PMU: no multiplexing, no estimate")
	}
}

func TestPerfStatMultiplexedEstimates(t *testing.T) {
	s := script(600_000_000)
	events := []isa.Event{isa.EvLoads, isa.EvStores, isa.EvBranches, isa.EvLLCMisses, isa.EvBranchMisses}
	res := run(t, quietProfile(), s, perfstat.New(), monitor.Config{
		Events: events, Period: 10 * ktime.Millisecond, ExcludeKernel: true,
	})
	if !res.Result.Estimated {
		t.Fatal("5 programmable events must multiplex")
	}
	wantLoads := s.TotalInstr() * s.Phases[0].LoadsPerK / 1000
	got := float64(res.Result.Totals[isa.EvLoads])
	off := (got - float64(wantLoads)) / float64(wantLoads)
	if off < -0.15 || off > 0.15 {
		t.Errorf("multiplexed loads estimate off %.1f%%", off*100)
	}
}

func TestPerfStatIntervalCadence(t *testing.T) {
	s := script(500_000_000)
	res := run(t, quietProfile(), s, perfstat.New(), monitor.Config{
		Events: stdEvents(), Period: 10 * ktime.Millisecond, ExcludeKernel: true,
	})
	ss := res.Result.Samples
	if len(ss) < 5 {
		t.Fatalf("too few samples: %d", len(ss))
	}
	for i := 1; i < len(ss); i++ {
		gap := ss[i].Time.Sub(ss[i-1].Time)
		if gap < 9*ktime.Millisecond || gap > 11*ktime.Millisecond {
			t.Errorf("interval %d: %v (setitimer cadence should not drift)", i, gap)
		}
	}
}

// --- perf record ---

func TestPerfRecordEstimatesWithinOnePercent(t *testing.T) {
	s := script(800_000_000)
	tool := perfrecord.New()
	res := run(t, quietProfile(), s, tool, monitor.Config{
		Events: stdEvents(), Period: 10 * ktime.Millisecond, ExcludeKernel: true,
	})
	if !res.Result.Estimated {
		t.Error("perf record totals are sampling estimates")
	}
	truth := s.TotalInstr()
	got := res.Result.Totals[isa.EvInstructions]
	if got > truth+truth/1000 {
		t.Errorf("sampled instruction estimate %d overcounts truth %d", got, truth)
	}
	// The estimate is the sum of sampled periods: the residue accumulated
	// since the last overflow is invisible, so the undercount is bounded by
	// one final period (frequency mode's adapted period on a short run).
	if floor := truth - 11*tool.FinalPeriod(isa.EvInstructions)/10; got < floor {
		t.Errorf("sampled instruction estimate %d undercounts truth %d by more than the final period %d",
			got, truth, tool.FinalPeriod(isa.EvInstructions))
	}
	if tool.SampleCount() == 0 {
		t.Fatal("no samples")
	}
}

func TestPerfRecordSampleRateTracksFrequency(t *testing.T) {
	s := script(800_000_000)
	tool := perfrecord.New()
	res := run(t, quietProfile(), s, tool, monitor.Config{
		Events: []isa.Event{isa.EvInstructions}, Period: 10 * ktime.Millisecond, ExcludeKernel: true,
	})
	want := res.Elapsed.Seconds() * 100 // -F 100 for a 10ms period
	got := float64(tool.SampleCount())
	if got < want/2 || got > want*2 {
		t.Errorf("sample count %v, want ≈%.0f", got, want)
	}
}

func TestPerfRecordCheaperThanPerfStat(t *testing.T) {
	s := script(600_000_000)
	base := run(t, quietProfile(), s, nil, monitor.Config{})
	cfg := monitor.Config{Events: stdEvents(), Period: 10 * ktime.Millisecond, ExcludeKernel: true}
	rec := run(t, quietProfile(), s, perfrecord.New(), cfg)
	stat := run(t, quietProfile(), s, perfstat.New(), cfg)
	recOv := float64(rec.Elapsed) - float64(base.Elapsed)
	statOv := float64(stat.Elapsed) - float64(base.Elapsed)
	if recOv >= statOv {
		t.Errorf("perf record (%.0fns) should cost less than perf stat (%.0fns)", recOv, statOv)
	}
}

// --- PAPI ---

func TestPAPIRequiresSource(t *testing.T) {
	tool := papi.New()
	m := machine.Boot(quietProfile(), 1)
	blob := kernel.ProgramFunc(func(*kernel.Kernel, *kernel.Process) kernel.Op { return kernel.OpExit{} })
	target := m.Kernel().SpawnStopped("blob", blob)
	err := tool.Attach(m, target, blob, monitor.Config{Events: stdEvents(), Period: ktime.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "source") {
		t.Errorf("PAPI must demand source access: %v", err)
	}
}

func TestPAPICountsAndPointCadence(t *testing.T) {
	s := script(400_000_000)
	tool := papi.New()
	tool.Points = 20
	res := run(t, quietProfile(), s, tool, monitor.Config{
		Events: stdEvents(), Period: 10 * ktime.Millisecond, ExcludeKernel: true,
	})
	n := len(res.Result.Samples)
	if n < 18 || n > 23 {
		t.Errorf("strategic points: got %d samples, want ≈21", n)
	}
	truth := s.TotalInstr()
	got := res.Result.Totals[isa.EvInstructions]
	// PAPI counts precisely, but its own instrumentation work is part of
	// the process — totals land slightly above the raw workload.
	if got < truth || float64(got) > 1.01*float64(truth) {
		t.Errorf("PAPI totals %d vs workload %d", got, truth)
	}
}

func TestPAPIEventSetLimit(t *testing.T) {
	s := script(1_000_000)
	tool := papi.New()
	m := machine.Boot(quietProfile(), 2)
	prog := s.Program()
	target := m.Kernel().SpawnStopped("t", prog)
	err := tool.Attach(m, target, prog, monitor.Config{
		Events: []isa.Event{isa.EvLoads, isa.EvStores, isa.EvBranches, isa.EvLLCMisses, isa.EvBranchMisses},
		Period: ktime.Millisecond,
	})
	if err == nil {
		t.Error("5 programmable events should exceed PAPI's event set")
	}
}

// --- LiMiT ---

func TestLiMiTRequiresPatchedKernel(t *testing.T) {
	s := script(1_000_000)
	tool := limit.New()
	m := machine.Boot(quietProfile(), 3) // stock kernel
	prog := s.Program()
	target := m.Kernel().SpawnStopped("t", prog)
	err := tool.Attach(m, target, prog, monitor.Config{Events: stdEvents(), Period: ktime.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "patch") {
		t.Errorf("LiMiT on a stock kernel must fail: %v", err)
	}
}

func TestLiMiTCountsOnPatchedKernel(t *testing.T) {
	s := script(400_000_000)
	tool := limit.New()
	tool.Points = 20
	res := run(t, quietLimitProfile(), s, tool, monitor.Config{
		Events: stdEvents(), Period: 10 * ktime.Millisecond, ExcludeKernel: true,
	})
	truth := s.TotalInstr()
	got := res.Result.Totals[isa.EvInstructions]
	if got < truth || float64(got) > 1.01*float64(truth) {
		t.Errorf("LiMiT totals %d vs workload %d", got, truth)
	}
	if len(res.Result.Samples) < 18 {
		t.Errorf("samples: %d", len(res.Result.Samples))
	}
}

func TestLiMiTCheaperThanPAPI(t *testing.T) {
	// The whole point of LiMiT: same instrumentation, no syscalls.
	s := script(600_000_000)
	cfg := monitor.Config{Events: stdEvents(), Period: 10 * ktime.Millisecond, ExcludeKernel: true}

	basePatched := run(t, quietLimitProfile(), s, nil, monitor.Config{})
	lt := limit.New()
	lt.Points = 50
	lres := run(t, quietLimitProfile(), s, lt, cfg)

	baseStock := run(t, quietProfile(), s, nil, monitor.Config{})
	pt := papi.New()
	pt.Points = 50
	pres := run(t, quietProfile(), s, pt, cfg)

	limitOv := float64(lres.Elapsed) - float64(basePatched.Elapsed)
	papiOv := float64(pres.Elapsed) - float64(baseStock.Elapsed)
	if limitOv >= papiOv {
		t.Errorf("LiMiT (%.0fns) should beat PAPI (%.0fns)", limitOv, papiOv)
	}
}

func TestLiMiTIsolatesCountsFromOtherProcesses(t *testing.T) {
	// The patch virtualizes counters per process: with OS noise running,
	// totals still match the target.
	s := script(200_000_000)
	tool := limit.New()
	tool.Points = 10
	res, err := session.Run(session.Spec{
		Profile:   quietLimitProfile(),
		Seed:      12,
		NewTarget: func() kernel.Program { return s.Program() },
		NewTool:   session.Use(tool),
		Config:    monitor.Config{Events: stdEvents(), Period: 10 * ktime.Millisecond, ExcludeKernel: true},
		OnBoot: func(m *machine.Machine) {
			m.Kernel().SpawnDaemon("os-noise", workload.OSNoise(12^0x9e37))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	truth := s.TotalInstr()
	got := res.Result.Totals[isa.EvInstructions]
	if got < truth || float64(got) > 1.02*float64(truth) {
		t.Errorf("counter virtualization leaked: %d vs %d", got, truth)
	}
}
