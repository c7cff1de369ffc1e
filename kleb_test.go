package kleb_test

import (
	"bytes"
	"strings"
	"testing"

	"kleb"
)

func TestCompareRacesToolsAgainstOneBaseline(t *testing.T) {
	opts := kleb.CollectOptions{
		Workload: kleb.Synthetic(100_000_000, 1<<20, 0.02),
		Events:   []kleb.Event{kleb.Instructions, kleb.LLCMisses},
		Period:   kleb.Millisecond,
	}
	rows, err := kleb.Compare(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("expected all five tools, got %d rows", len(rows))
	}
	byTool := map[kleb.ToolKind]kleb.CompareRow{}
	for _, row := range rows {
		byTool[row.Tool] = row
	}
	// LiMiT needs its kernel patch; the default Nehalem machine reports it
	// unsupported without failing the other tools.
	if row := byTool[kleb.ToolLiMiT]; row.Unsupported == "" || row.Report != nil {
		t.Errorf("LiMiT on stock kernel should be unsupported, got %+v", row)
	}
	for _, kind := range []kleb.ToolKind{kleb.ToolKLEB, kleb.ToolPerfStat, kleb.ToolPerfRecord, kleb.ToolPAPI} {
		row := byTool[kind]
		if row.Report == nil {
			t.Fatalf("%s: no report (unsupported: %q)", kind, row.Unsupported)
		}
		if row.Report.BaselineElapsed <= 0 {
			t.Errorf("%s: missing shared baseline", kind)
		}
		if row.Report.Totals[kleb.Instructions] == 0 {
			t.Errorf("%s: no instruction count", kind)
		}
	}
	// The same call with a single worker must be bit-identical.
	serialOpts := opts
	serialOpts.Workers = 1
	serial, err := kleb.Compare(serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i].Unsupported != serial[i].Unsupported {
			t.Errorf("row %d: unsupported diverged across worker counts", i)
		}
		if rows[i].Report == nil || serial[i].Report == nil {
			continue
		}
		if rows[i].Report.Elapsed != serial[i].Report.Elapsed ||
			len(rows[i].Report.Samples) != len(serial[i].Report.Samples) {
			t.Errorf("row %d (%s): results diverged across worker counts", i, rows[i].Tool)
		}
	}
}

func TestCollectQuickstart(t *testing.T) {
	report, err := kleb.Collect(kleb.CollectOptions{
		Workload: kleb.Synthetic(100_000_000, 1<<20, 0.02),
		Events:   []kleb.Event{kleb.Instructions, kleb.LLCMisses},
		Period:   kleb.Millisecond,
		Baseline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Tool != kleb.ToolKLEB {
		t.Errorf("default tool: %s", report.Tool)
	}
	if report.Totals[kleb.Instructions] != 100_000_000 {
		t.Errorf("instructions %d", report.Totals[kleb.Instructions])
	}
	if len(report.Samples) == 0 {
		t.Error("no samples")
	}
	if report.OverheadPct <= 0 || report.OverheadPct > 10 {
		t.Errorf("overhead %.2f%% implausible", report.OverheadPct)
	}
	if report.MPKI() <= 0 {
		t.Error("MPKI should be positive for a 1MB footprint")
	}
	if s := report.Sparkline(kleb.Instructions, 20); len([]rune(s)) != 20 {
		t.Errorf("sparkline width: %q", s)
	}
}

func TestCollectValidation(t *testing.T) {
	if _, err := kleb.Collect(kleb.CollectOptions{}); err == nil {
		t.Error("missing workload should fail")
	}
	w := kleb.Synthetic(1000, 4096, 0)
	if _, err := kleb.Collect(kleb.CollectOptions{Workload: w, Machine: "z80"}); err == nil {
		t.Error("unknown machine should fail")
	}
	if _, err := kleb.Collect(kleb.CollectOptions{
		Workload: w, Tool: "strace",
		Events: []kleb.Event{kleb.Instructions},
	}); err == nil {
		t.Error("unknown tool should fail")
	}
	if _, err := kleb.Collect(kleb.CollectOptions{Workload: w}); err == nil {
		t.Error("missing events should fail")
	}
}

func TestCollectCSV(t *testing.T) {
	report, err := kleb.Collect(kleb.CollectOptions{
		Workload: kleb.Synthetic(50_000_000, 64<<10, 0),
		Events:   []kleb.Event{kleb.Instructions, kleb.Loads},
		Period:   kleb.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(report.Samples)+1 {
		t.Errorf("csv rows %d for %d samples", len(lines), len(report.Samples))
	}
	if !strings.HasPrefix(lines[0], "time_us,INST_RETIRED") {
		t.Errorf("header %q", lines[0])
	}
}

func TestCollectGFLOPS(t *testing.T) {
	report, err := kleb.Collect(kleb.CollectOptions{
		Workload: kleb.Linpack(2000), // small, fast
		Events:   []kleb.Event{kleb.ArithMuls},
		Period:   10 * kleb.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.GFLOPS <= 0 {
		t.Error("LINPACK should report a rate")
	}
}

func TestCollectWithBaselineTools(t *testing.T) {
	w := kleb.TripleLoopMatmul()
	for _, tool := range []kleb.ToolKind{kleb.ToolPerfStat, kleb.ToolPerfRecord} {
		report, err := kleb.Collect(kleb.CollectOptions{
			Workload: w,
			Events:   []kleb.Event{kleb.Instructions, kleb.LLCMisses},
			Tool:     tool,
		})
		if err != nil {
			t.Fatalf("%s: %v", tool, err)
		}
		if report.Totals[kleb.Instructions] == 0 {
			t.Errorf("%s: no instruction count", tool)
		}
	}
	// LiMiT needs the legacy machine.
	if _, err := kleb.Collect(kleb.CollectOptions{
		Workload: w,
		Events:   []kleb.Event{kleb.Instructions},
		Tool:     kleb.ToolLiMiT,
	}); err == nil {
		t.Error("LiMiT on the default machine should fail")
	}
	if _, err := kleb.Collect(kleb.CollectOptions{
		Workload: w,
		Machine:  kleb.LegacyLiMiT,
		Events:   []kleb.Event{kleb.Instructions},
		Tool:     kleb.ToolLiMiT,
	}); err != nil {
		t.Errorf("LiMiT on the patched machine: %v", err)
	}
}

func TestContainerWorkloads(t *testing.T) {
	names := kleb.ContainerImages()
	if len(names) != 9 {
		t.Fatalf("images: %d", len(names))
	}
	if _, err := kleb.Container("not-an-image"); err == nil {
		t.Error("unknown image should fail")
	}
	w, err := kleb.Container("nginx")
	if err != nil {
		t.Fatal(err)
	}
	report, err := kleb.Collect(kleb.CollectOptions{
		Workload: w,
		Events:   []kleb.Event{kleb.LLCMisses, kleb.Instructions},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.MPKI() <= 10 {
		t.Errorf("nginx should classify memory-intensive, MPKI %.2f", report.MPKI())
	}
}

func TestEventByName(t *testing.T) {
	ev, ok := kleb.EventByName("LLC_MISSES")
	if !ok || ev != kleb.LLCMisses {
		t.Error("lookup failed")
	}
}

func TestMeltdownWorkloadsDiffer(t *testing.T) {
	study := kleb.Meltdown()
	events := []kleb.Event{kleb.LLCReferences, kleb.LLCMisses, kleb.Instructions}
	victim, err := kleb.Collect(kleb.CollectOptions{
		Workload: study.Victim(), Events: events, Period: 100 * kleb.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	attack, err := kleb.Collect(kleb.CollectOptions{
		Workload: study.Attack(), Events: events, Period: 100 * kleb.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if victim.Elapsed >= 10*kleb.Millisecond {
		t.Errorf("victim must finish in under 10ms, took %v", victim.Elapsed)
	}
	if attack.Totals[kleb.LLCReferences] <= victim.Totals[kleb.LLCReferences] {
		t.Error("the attack must raise LLC references")
	}
	if attack.MPKI() <= victim.MPKI() {
		t.Error("the attack must raise MPKI")
	}
	if len(attack.Samples) <= len(victim.Samples) {
		t.Error("the attack run should produce more samples")
	}
}

func TestDeterministicCollect(t *testing.T) {
	opts := kleb.CollectOptions{
		Workload: kleb.Synthetic(50_000_000, 512<<10, 0.1),
		Events:   []kleb.Event{kleb.Instructions},
		Seed:     77,
	}
	a, err := kleb.Collect(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := kleb.Collect(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed || len(a.Samples) != len(b.Samples) {
		t.Error("same options+seed must replay identically")
	}
}

func TestHeartbleedDetectionViaFacade(t *testing.T) {
	study := kleb.Heartbleed()
	events := []kleb.Event{kleb.LLCReferences, kleb.LLCMisses, kleb.Instructions}
	attack, err := kleb.Collect(kleb.CollectOptions{
		Workload: study.Attack(),
		Events:   events,
		Period:   100 * kleb.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	server, err := kleb.Collect(kleb.CollectOptions{
		Workload: study.Server(),
		Events:   events,
		Period:   100 * kleb.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if attack.Elapsed <= server.Elapsed {
		t.Error("the over-read burst should lengthen the run")
	}
	det, err := kleb.NewCUSUMDetector(events, kleb.LLCMisses)
	if err != nil {
		t.Fatal(err)
	}
	rep := attack.Detect(det)
	if rep.Flagged == 0 {
		t.Error("facade detection pipeline missed the over-read burst")
	}
}

func TestPowerEstimationViaFacade(t *testing.T) {
	report, err := kleb.Collect(kleb.CollectOptions{
		Workload: kleb.DgemmMatmul(),
		Events:   []kleb.Event{kleb.Instructions, kleb.LLCMisses, kleb.FloatingPointOps},
		Period:   kleb.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	est, err := report.EstimatePower(kleb.DefaultPowerModel())
	if err != nil {
		t.Fatal(err)
	}
	if est.MeanWatts <= 0 || est.EnergyJoules <= 0 {
		t.Errorf("degenerate estimate: %+v", est)
	}
	// An unmodelable event set errors cleanly.
	bad, err := kleb.Collect(kleb.CollectOptions{
		Workload: kleb.Synthetic(10_000_000, 4096, 0),
		Events:   []kleb.Event{kleb.Branches},
		Period:   kleb.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.EstimatePower(kleb.DefaultPowerModel()); err == nil {
		t.Error("unmodeled events should be rejected")
	}
}

func TestInterferenceFacade(t *testing.T) {
	cells, err := kleb.Interference([]string{"ruby", "mysql"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var soloSeen, pairSeen bool
	for _, c := range cells {
		if c.Neighbour == "" {
			soloSeen = true
			if c.Slowdown != 1 {
				t.Errorf("solo slowdown %.2f", c.Slowdown)
			}
		} else {
			pairSeen = true
			if c.Slowdown < 0.9 {
				t.Errorf("implausible speedup: %+v", c)
			}
		}
	}
	if !soloSeen || !pairSeen {
		t.Error("matrix incomplete")
	}
	if _, err := kleb.Interference([]string{"no-such-image"}, 1); err == nil {
		t.Error("unknown image should fail")
	}
}

func TestEventPortabilityAcrossMachines(t *testing.T) {
	// §VI: event availability is per-microarchitecture. ARITH.MUL exists
	// on Nehalem but not on Cascade Lake; monitoring it there must fail
	// loudly, not silently count zeros.
	w := kleb.Synthetic(10_000_000, 64<<10, 0)
	if _, err := kleb.Collect(kleb.CollectOptions{
		Workload: w,
		Events:   []kleb.Event{kleb.ArithMuls},
		Machine:  kleb.Nehalem,
	}); err != nil {
		t.Errorf("ARITH.MUL on Nehalem: %v", err)
	}
	if _, err := kleb.Collect(kleb.CollectOptions{
		Workload: w,
		Events:   []kleb.Event{kleb.ArithMuls},
		Machine:  kleb.CascadeLake,
	}); err == nil {
		t.Error("ARITH.MUL on Cascade Lake should be rejected")
	}
}
