package session_test

import (
	"strings"
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

func smallWorkload() workload.Script {
	return workload.Synthetic{
		Name:       "small",
		TotalInstr: 300_000_000, // ~60ms at CPI≈0.5
		Footprint:  512 << 10,
	}.Script()
}

func newTargetFactory(s workload.Script) func() kernel.Program {
	return func() kernel.Program { return s.Program() }
}

func klebFactory() (monitor.Tool, error) { return kleb.New(), nil }

func TestBaselineRunCompletes(t *testing.T) {
	res, err := session.Run(session.Spec{
		Profile:    machine.Nehalem(),
		Seed:       1,
		TargetName: "small",
		NewTarget:  newTargetFactory(smallWorkload()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed == 0 {
		t.Fatal("zero elapsed time")
	}
	if res.TargetUser == 0 {
		t.Error("no user time accumulated")
	}
	t.Logf("baseline elapsed=%v user=%v kern=%v", res.Elapsed, res.TargetUser, res.TargetKern)
}

func TestBaselineDeterministicAcrossRuns(t *testing.T) {
	run := func() ktime.Duration {
		res, err := session.Run(session.Spec{
			Profile:   machine.Nehalem(),
			Seed:      42,
			NewTarget: newTargetFactory(smallWorkload()),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different elapsed: %v vs %v", a, b)
	}
}

func TestKlebRunProducesSamples(t *testing.T) {
	res, err := session.Run(session.Spec{
		Profile:   machine.Nehalem(),
		Seed:      7,
		NewTarget: newTargetFactory(smallWorkload()),
		NewTool:   klebFactory,
		Config: monitor.Config{
			Events:        []isa.Event{isa.EvInstructions, isa.EvLLCMisses, isa.EvLoads, isa.EvStores},
			Period:        ktime.Millisecond,
			ExcludeKernel: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.Samples) < 10 {
		t.Fatalf("expected a healthy sample series, got %d samples", len(res.Result.Samples))
	}
	instr := res.Result.Totals[isa.EvInstructions]
	if instr < 290_000_000 || instr > 310_000_000 {
		t.Errorf("instruction total %d not within 3%% of 300M", instr)
	}
	t.Logf("kleb samples=%d elapsed=%v instr=%d", len(res.Result.Samples), res.Elapsed, instr)
}

func TestKlebOverheadIsSmall(t *testing.T) {
	base, err := session.Run(session.Spec{
		Profile:   machine.Nehalem(),
		Seed:      9,
		NewTarget: newTargetFactory(smallWorkload()),
	})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := session.Run(session.Spec{
		Profile:   machine.Nehalem(),
		Seed:      9,
		NewTarget: newTargetFactory(smallWorkload()),
		NewTool:   klebFactory,
		Config: monitor.Config{
			Events:        []isa.Event{isa.EvInstructions, isa.EvLLCMisses},
			Period:        10 * ktime.Millisecond,
			ExcludeKernel: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	overhead := 100 * (float64(mon.Elapsed) - float64(base.Elapsed)) / float64(base.Elapsed)
	if overhead < 0 {
		t.Errorf("negative overhead %f%%", overhead)
	}
	if overhead > 5 {
		t.Errorf("K-LEB overhead %f%% unreasonably high at 10ms", overhead)
	}
	t.Logf("kleb overhead at 10ms: %.3f%% (base=%v mon=%v)", overhead, base.Elapsed, mon.Elapsed)
}

func TestStagedLifecycle(t *testing.T) {
	tool := kleb.New()
	s := session.New(session.Spec{
		Profile:    machine.Nehalem(),
		Seed:       3,
		TargetName: "staged",
		NewTarget:  newTargetFactory(smallWorkload()),
		NewTool:    session.Use(tool),
		Config: monitor.Config{
			Events:        []isa.Event{isa.EvInstructions, isa.EvLoads},
			Period:        ktime.Millisecond,
			ExcludeKernel: true,
		},
	})
	m, err := s.Boot()
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || m.Kernel() == nil {
		t.Fatal("Boot returned no machine")
	}
	if err := s.Attach(); err != nil {
		t.Fatal(err)
	}
	if err := s.Drive(); err != nil {
		t.Fatal(err)
	}
	res := s.Drain()
	if res.Tool != monitor.Tool(tool) {
		t.Error("Drain should surface the attached tool instance")
	}
	if res.Target == nil || res.Target.Name() != "staged" {
		t.Errorf("target: %+v", res.Target)
	}
	if len(res.Result.Samples) == 0 {
		t.Error("staged lifecycle collected nothing")
	}
	// The whole-lifecycle shortcut on the same spec replays identically.
	again, err := session.Run(session.Spec{
		Profile:    machine.Nehalem(),
		Seed:       3,
		TargetName: "staged",
		NewTarget:  newTargetFactory(smallWorkload()),
		NewTool:    klebFactory,
		Config: monitor.Config{
			Events:        []isa.Event{isa.EvInstructions, isa.EvLoads},
			Period:        ktime.Millisecond,
			ExcludeKernel: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if again.Elapsed != res.Elapsed {
		t.Errorf("staged vs one-shot elapsed: %v vs %v", res.Elapsed, again.Elapsed)
	}
}

func TestRunRejectsMissingTarget(t *testing.T) {
	_, err := session.Run(session.Spec{Profile: machine.Nehalem()})
	if err == nil || !strings.Contains(err.Error(), "NewTarget") {
		t.Errorf("got %v", err)
	}
}

func TestRunRejectsBadConfigWithTool(t *testing.T) {
	_, err := session.Run(session.Spec{
		Profile:   machine.Nehalem(),
		NewTarget: newTargetFactory(smallWorkload()),
		NewTool:   klebFactory,
		Config:    monitor.Config{}, // invalid
	})
	if err == nil {
		t.Error("invalid config with a tool should fail")
	}
}

func TestRunWithLimit(t *testing.T) {
	// A run whose target never exits must stop at the Limit rather than
	// hang; it then errors because the target is still alive.
	s := smallWorkload()
	_, err := session.Run(session.Spec{
		Profile:   machine.Nehalem(),
		NewTarget: newTargetFactory(s),
		Limit:     ktime.Millisecond, // far too short for the workload
	})
	if err == nil || !strings.Contains(err.Error(), "did not exit") {
		t.Errorf("got %v", err)
	}
}

func TestNoiseChangesTiming(t *testing.T) {
	base, err := session.Run(session.Spec{
		Profile: machine.Nehalem(), Seed: 5, NewTarget: newTargetFactory(smallWorkload()),
	})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := session.Run(session.Spec{
		Profile: machine.Nehalem(), Seed: 5, NewTarget: newTargetFactory(smallWorkload()),
		OnBoot: func(m *machine.Machine) {
			m.Kernel().SpawnDaemon("os-noise", workload.OSNoise(5^0x9e37))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if noisy.Elapsed <= base.Elapsed {
		t.Errorf("OS noise should lengthen the run: %v vs %v", noisy.Elapsed, base.Elapsed)
	}
	if noisy.Target.Switches() <= base.Target.Switches() {
		t.Error("noise should force extra context switches")
	}
}
