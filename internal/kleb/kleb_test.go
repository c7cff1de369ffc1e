package kleb

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"kleb/internal/isa"
	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/monitor"
	"kleb/internal/session"
	"kleb/internal/trace"
	"kleb/internal/workload"
)

func quietProfile() machine.Profile {
	p := machine.Nehalem()
	p.Costs.NoiseRel = 0
	p.Costs.TimerJitterRel = 0
	p.Costs.RunNoiseRel = 0
	return p
}

func targetScript(instr uint64) workload.Script {
	return workload.Synthetic{
		Name:       "target",
		TotalInstr: instr,
		BlockInstr: 100_000,
		Footprint:  256 << 10,
	}.Script()
}

// runWithKLEB runs a workload under the full K-LEB stack and returns the
// collected result plus the module for post-mortem inspection.
func runWithKLEB(t *testing.T, seed uint64, script workload.Script, cfg monitor.Config, tweak func(*Tool)) (*session.Result, *Tool) {
	t.Helper()
	tool := New()
	if tweak != nil {
		tweak(tool)
	}
	res, err := session.Run(session.Spec{
		Profile:   quietProfile(),
		Seed:      seed,
		NewTarget: func() kernel.Program { return script.Program() },
		NewTool:   session.Use(tool),
		Config:    cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, tool
}

func stdConfig(period ktime.Duration) monitor.Config {
	return monitor.Config{
		Events:        []isa.Event{isa.EvInstructions, isa.EvLoads, isa.EvLLCMisses},
		Period:        period,
		ExcludeKernel: true,
	}
}

func TestTotalsAreExact(t *testing.T) {
	script := targetScript(200_000_000)
	res, _ := runWithKLEB(t, 1, script, stdConfig(ktime.Millisecond), nil)
	if got := res.Result.Totals[isa.EvInstructions]; got != script.TotalInstr() {
		t.Errorf("instructions: got %d want %d (K-LEB counts precisely, not estimates)",
			got, script.TotalInstr())
	}
	wantLoads := script.TotalInstr() * script.Phases[0].LoadsPerK / 1000
	if got := res.Result.Totals[isa.EvLoads]; got != wantLoads {
		t.Errorf("loads: got %d want %d", got, wantLoads)
	}
}

func TestSampleCadenceMatchesPeriod(t *testing.T) {
	script := targetScript(200_000_000)
	period := ktime.Millisecond
	res, _ := runWithKLEB(t, 2, script, stdConfig(period), nil)
	expected := int(res.Elapsed / period)
	got := len(res.Result.Samples)
	if got < expected*8/10 || got > expected+2 {
		t.Errorf("samples: got %d, elapsed/period = %d", got, expected)
	}
	// Timestamps strictly increase.
	for i := 1; i < len(res.Result.Samples); i++ {
		if res.Result.Samples[i].Time <= res.Result.Samples[i-1].Time {
			t.Fatal("sample timestamps not increasing")
		}
	}
}

func TestHundredMicrosecondSampling(t *testing.T) {
	// The headline claim: 100µs periodic collection works and yields ~100
	// samples for a ~10ms program — where a 10ms tool gets at most one.
	script := workload.Synthetic{
		Name: "short", TotalInstr: 30_000_000, BlockInstr: 30_000, Footprint: 64 << 10,
	}.Script()
	res, _ := runWithKLEB(t, 3, script, stdConfig(100*ktime.Microsecond), nil)
	if res.Elapsed > 20*ktime.Millisecond {
		t.Fatalf("short workload took %v", res.Elapsed)
	}
	want := int(res.Elapsed / (100 * ktime.Microsecond))
	if got := len(res.Result.Samples); got < want*7/10 {
		t.Errorf("100µs sampling: got %d samples, expected ≈%d", got, want)
	}
}

func TestLineageTracking(t *testing.T) {
	// Monitor the Docker engine; the counts must include the container
	// child's work (fork-probe lineage tracking).
	img, _ := workload.ImageByName("golang")
	tool := New()
	res, err := session.Run(session.Spec{
		Profile:   quietProfile(),
		Seed:      4,
		NewTarget: func() kernel.Program { return workload.DockerRun(img) },
		NewTool:   session.Use(tool),
		Config:    stdConfig(10 * ktime.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The engine itself retires ~4M instructions; the container's script
	// dominates. Totals must reflect the child.
	if got := res.Result.Totals[isa.EvInstructions]; got < img.Script().TotalInstr() {
		t.Errorf("lineage tracking lost the child: %d < %d", got, img.Script().TotalInstr())
	}
}

func TestBufferFullSafetyMechanism(t *testing.T) {
	// A tiny ring with a starved controller: the module must pause (not
	// overwrite), record drops, and resume after a drain — and the sum of
	// collected deltas must never exceed ground truth.
	script := targetScript(400_000_000)
	res, tool := runWithKLEB(t, 5, script, stdConfig(100*ktime.Microsecond), func(tl *Tool) {
		tl.BufferSamples = 64
		tl.DrainInterval = 50 * ktime.Millisecond
	})
	if res.Result.Dropped == 0 {
		t.Fatal("expected dropped periods with a 64-sample ring at 100µs and 50ms drains")
	}
	if len(res.Result.Samples) == 0 {
		t.Fatal("no samples collected at all")
	}
	if got := res.Result.Totals[isa.EvInstructions]; got > script.TotalInstr() {
		t.Errorf("collected more instructions than executed: %d > %d", got, script.TotalInstr())
	}
	// Collection resumed after pauses: samples span most of the run.
	last := res.Result.Samples[len(res.Result.Samples)-1].Time
	if last < res.Target.ExitTime()-ktime.Time(120*ktime.Millisecond) {
		t.Errorf("collection never resumed: last sample %v, exit %v", last, res.Target.ExitTime())
	}
	_ = tool
}

func TestIsolationFromOtherProcesses(t *testing.T) {
	// With OS noise running, K-LEB totals still match the target exactly:
	// counting is gated off whenever the target is scheduled out.
	script := targetScript(150_000_000)
	tool := New()
	res, err := session.Run(session.Spec{
		Profile:   quietProfile(),
		Seed:      6,
		NewTarget: func() kernel.Program { return script.Program() },
		NewTool:   session.Use(tool),
		Config:    stdConfig(ktime.Millisecond),
		OnBoot: func(m *machine.Machine) {
			m.Kernel().SpawnDaemon("os-noise", workload.OSNoise(6^0x9e37))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Result.Totals[isa.EvInstructions]; got != script.TotalInstr() {
		t.Errorf("noise leaked into counts: got %d want %d", got, script.TotalInstr())
	}
}

func TestModuleConfigValidation(t *testing.T) {
	m := machine.Boot(quietProfile(), 7)
	k := m.Kernel()
	mod := NewModule()
	if err := k.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	target := k.Spawn("t", targetScript(1000).Program())

	cases := []struct {
		name string
		cfg  ModuleConfig
		want string
	}{
		{"no-events", ModuleConfig{Period: ktime.Millisecond, Target: target.PID()}, "no events"},
		{"no-period", ModuleConfig{Events: []isa.Event{isa.EvLoads}, Target: target.PID()}, "zero period"},
		{"bad-pid", ModuleConfig{Events: []isa.Event{isa.EvLoads}, Period: ktime.Millisecond, Target: 999}, "does not exist"},
		{"too-many", ModuleConfig{
			Events: []isa.Event{isa.EvLoads, isa.EvStores, isa.EvBranches, isa.EvLLCMisses, isa.EvLLCRefs},
			Period: ktime.Millisecond, Target: target.PID(),
		}, "counters"},
	}
	for _, c := range cases {
		if err := mod.configure(c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: want error containing %q, got %v", c.name, c.want, err)
		}
	}
	// Valid config passes; fixed events don't consume programmable slots.
	ok := ModuleConfig{
		Events: []isa.Event{isa.EvInstructions, isa.EvCycles, isa.EvRefCycles,
			isa.EvLoads, isa.EvStores, isa.EvBranches, isa.EvLLCMisses},
		Period: ktime.Millisecond,
		Target: target.PID(),
	}
	if err := mod.configure(ok); err != nil {
		t.Errorf("7-event config (3 fixed + 4 programmable) should fit: %v", err)
	}
	if err := mod.start(); err != nil {
		t.Fatal(err)
	}
	if err := mod.configure(ok); err == nil {
		t.Error("reconfigure while running should fail")
	}
	if err := mod.start(); err == nil {
		t.Error("double start should fail")
	}
}

func TestModuleIoctlErrors(t *testing.T) {
	m := machine.Boot(quietProfile(), 8)
	k := m.Kernel()
	mod := NewModule()
	if err := k.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	var errs []error
	stage := 0
	k.Spawn("ctl", kernel.ProgramFunc(func(k *kernel.Kernel, p *kernel.Process) kernel.Op {
		if stage == 0 {
			stage = 1
			return kernel.OpSyscall{Name: "ioctl", Fn: func(k *kernel.Kernel, p *kernel.Process) any {
				_, err := k.Ioctl(p, DeviceName, 999, nil)
				errs = append(errs, err)
				_, err = k.Ioctl(p, DeviceName, CmdConfig, "wrong type")
				errs = append(errs, err)
				_, err = k.Ioctl(p, DeviceName, CmdRead, 42)
				errs = append(errs, err)
				_, err = k.Ioctl(p, DeviceName, CmdStart, nil)
				errs = append(errs, err)
				return nil
			}}
		}
		return kernel.OpExit{}
	}))
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err == nil {
			t.Errorf("ioctl case %d should have failed", i)
		}
	}
}

func TestModuleUnloadCleansUp(t *testing.T) {
	m := machine.Boot(quietProfile(), 9)
	k := m.Kernel()
	mod := NewModule()
	if err := k.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	if err := k.UnloadModule(mod.ModuleName()); err != nil {
		t.Fatal(err)
	}
	// Device gone: a fresh module can register again.
	if err := k.LoadModule(NewModule()); err != nil {
		t.Errorf("device not released on unload: %v", err)
	}
}

func TestExcludeKernelFiltering(t *testing.T) {
	// A workload with a kernel-mode phase: USR-only counting must not see
	// its instructions; USR+OS counting must.
	script := workload.Script{Name: "mixed", Phases: []workload.Phase{
		{Name: "kern", TotalInstr: 50_000_000, BlockInstr: 100_000, LoadsPerK: 100,
			Mem:  isa.MemPattern{Base: 0x100000, Footprint: 64 << 10, Stride: 8},
			Priv: isa.Kernel},
		{Name: "user", TotalInstr: 50_000_000, BlockInstr: 100_000, LoadsPerK: 100,
			Mem:  isa.MemPattern{Base: 0x200000, Footprint: 64 << 10, Stride: 8},
			Priv: isa.User},
	}}
	resUser, _ := runWithKLEB(t, 10, script, monitor.Config{
		Events: []isa.Event{isa.EvInstructions}, Period: ktime.Millisecond, ExcludeKernel: true,
	}, nil)
	resBoth, _ := runWithKLEB(t, 10, script, monitor.Config{
		Events: []isa.Event{isa.EvInstructions}, Period: ktime.Millisecond, ExcludeKernel: false,
	}, nil)
	u := resUser.Result.Totals[isa.EvInstructions]
	if u != 50_000_000 {
		t.Errorf("user-only count %d, want exactly the user phase", u)
	}
	b := resBoth.Result.Totals[isa.EvInstructions]
	if b < 100_000_000 {
		t.Errorf("user+kernel count %d, want at least both phases", b)
	}
}

func TestFinalPartialSampleFlushed(t *testing.T) {
	// A workload whose runtime is not a period multiple: the tail between
	// the last timer fire and exit must still be counted (final flush).
	script := targetScript(100_000_000)
	res, _ := runWithKLEB(t, 11, script, stdConfig(10*ktime.Millisecond), nil)
	if got := res.Result.Totals[isa.EvInstructions]; got != script.TotalInstr() {
		t.Errorf("final partial sample missing: %d != %d", got, script.TotalInstr())
	}
}

func TestTooManyProgrammableEventsRejectedAtAttach(t *testing.T) {
	tool := New()
	err := tool.Attach(machine.Boot(quietProfile(), 12),
		nil, nil, monitor.Config{
			Events: []isa.Event{isa.EvLoads, isa.EvStores, isa.EvBranches,
				isa.EvLLCMisses, isa.EvLLCRefs},
			Period: ktime.Millisecond,
		})
	if err == nil || !strings.Contains(err.Error(), "multiplex") {
		t.Errorf("want multiplexing refusal, got %v", err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	script := targetScript(80_000_000)
	run := func() (ktime.Duration, int) {
		res, _ := runWithKLEB(t, 13, script, stdConfig(ktime.Millisecond), nil)
		return res.Elapsed, len(res.Result.Samples)
	}
	e1, n1 := run()
	e2, n2 := run()
	if e1 != e2 || n1 != n2 {
		t.Errorf("replay diverged: (%v,%d) vs (%v,%d)", e1, n1, e2, n2)
	}
}

// --- ring buffer unit & property tests ---

func TestRingBasicFIFO(t *testing.T) {
	r := newRing(4, 1)
	for i := 0; i < 4; i++ {
		if !r.push(ktime.Time(i), []uint64{uint64(i) * 10}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.push(99, []uint64{0}) {
		t.Fatal("push into full ring succeeded")
	}
	if r.len() != 4 || r.free() != 0 {
		t.Fatalf("len=%d free=%d", r.len(), r.free())
	}
	out := r.popN(2)
	if !slices.Equal(out.Times, []ktime.Time{0, 1}) {
		t.Fatalf("popN order: %v", out)
	}
	if !slices.Equal(out.Deltas, []uint64{0, 10}) {
		t.Fatalf("popN deltas: %v", out)
	}
	if !r.push(9, []uint64{90}) {
		t.Fatal("push after drain failed")
	}
	rest := r.popN(100)
	if len(rest.Times) != 3 || rest.Times[2] != 9 || rest.Deltas[2] != 90 {
		t.Fatalf("wraparound order: %v", rest)
	}
	if b := r.popN(1); b.Times != nil || b.Deltas != nil {
		t.Fatal("pop from empty ring returned data")
	}
	if b := r.popN(0); b.Times != nil || b.Deltas != nil {
		t.Fatal("popN(0) should return an empty batch")
	}
}

func TestRingDefaultCapacity(t *testing.T) {
	r := newRing(0, 1)
	if got := r.capacity(); got != DefaultBufferSamples {
		t.Errorf("default capacity %d", got)
	}
	if r.free() != DefaultBufferSamples || len(r.buf) != 0 {
		t.Errorf("a new ring must allocate no slot: free %d, %d slots allocated", r.free(), len(r.buf))
	}
}

func TestRingPopCopiesOutOfSlab(t *testing.T) {
	// popN must hand back samples that survive the slot being reused:
	// the returned deltas cannot alias the ring's backing slab.
	r := newRing(2, 2)
	scratch := []uint64{1, 2}
	if !r.push(1, scratch) {
		t.Fatal("push failed")
	}
	got := r.popN(1)
	// Refill the now-free slot with different data via the same scratch.
	scratch[0], scratch[1] = 77, 88
	if !r.push(2, scratch) {
		t.Fatal("second push failed")
	}
	if len(got.Times) != 1 || cap(got.Times) != 1 || len(got.Deltas) != 2 || cap(got.Deltas) != 2 {
		t.Fatalf("popN(1) of width 2 returned times len %d cap %d, deltas len %d cap %d; want exact sizes 1 and 2",
			len(got.Times), cap(got.Times), len(got.Deltas), cap(got.Deltas))
	}
	if got.Deltas[0] != 1 || got.Deltas[1] != 2 {
		t.Fatalf("popped sample mutated by slot reuse: %v", got.Deltas)
	}
}

func TestRingFIFOProperty(t *testing.T) {
	// Any interleaving of pushes and pops preserves FIFO order and never
	// loses or duplicates accepted samples. At capacity 100 the ring grows
	// from ringFirstSlots to 100 slots, mostly after pops have wrapped it.
	prop := func(capacity int, ops []uint8) bool {
		r := newRing(capacity, 1)
		next := uint64(0)
		wantNext := uint64(0)
		for _, op := range ops {
			if op%3 == 0 { // pop
				b := r.popN(int(op%5) + 1)
				for i, tm := range b.Times {
					if uint64(tm) != wantNext || b.Deltas[i] != wantNext {
						return false
					}
					wantNext++
				}
			} else { // push a burst
				for i := 0; i <= int(op%16); i++ {
					if r.push(ktime.Time(next), []uint64{next}) {
						next++
					} else if r.len() != capacity {
						return false
					}
				}
			}
		}
		b := r.popN(r.len())
		for i, tm := range b.Times {
			if uint64(tm) != wantNext || b.Deltas[i] != wantNext {
				return false
			}
			wantNext++
		}
		return wantNext == next
	}
	for _, capacity := range []int{8, 100} {
		if err := quick.Check(func(ops []uint8) bool { return prop(capacity, ops) }, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("capacity %d: %v", capacity, err)
		}
	}
}

// TestControllerLogOnFilesystem: the controller logs the samples to the
// kernel's filesystem (the paper's design point), and at the paper's 100µs
// period the log is byte for byte trace.WriteCSV of the collected series,
// over a synthetic target and over the serve model, each more than a
// thousand rows long. The log is read when the run ends, before Drain
// releases the filesystem with the machine's storage.
func TestControllerLogOnFilesystem(t *testing.T) {
	serve := workload.NewServe()
	serve.TotalInstr = 50_000_000
	for _, c := range []struct {
		name   string
		target func() kernel.Program
	}{
		{"synthetic", func() kernel.Program { return targetScript(400_000_000).Program() }},
		{"serve", func() kernel.Program { return serve.Program(30) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			sess := session.New(session.Spec{
				Profile:   quietProfile(),
				Seed:      30,
				NewTarget: c.target,
				NewTool:   session.Use(New()),
				Config:    stdConfig(100 * ktime.Microsecond),
			})
			if err := sess.Drive(); err != nil {
				t.Fatal(err)
			}
			m, _ := sess.Boot()
			raw, ok := m.Kernel().FS().ReadFile(DefaultLogPath)
			if !ok {
				t.Fatalf("controller log %s missing; files: %v", DefaultLogPath, m.Kernel().FS().Names())
			}
			res := sess.Drain()
			if n := len(res.Result.Samples); n <= 1000 {
				t.Fatalf("%d samples; the test needs more than 1000", n)
			}
			var want bytes.Buffer
			if err := trace.WriteCSV(&want, res.Result.Events, res.Result.Samples); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d samples, %d log bytes", len(res.Result.Samples), len(raw))
			if bytes.Equal(raw, want.Bytes()) {
				return
			}
			got, exp := strings.Split(string(raw), "\n"), strings.Split(want.String(), "\n")
			for i := 0; i < len(got) && i < len(exp); i++ {
				if got[i] != exp[i] {
					t.Fatalf("log line %d is %q, WriteCSV gives %q", i+1, got[i], exp[i])
				}
			}
			t.Fatalf("the log has %d lines, WriteCSV gives %d", len(got), len(exp))
		})
	}
}

// TestControllerKeepsDrainBatches: the controller keeps every KLEB_READ
// reply as the module handed it over, two exact-size arrays per drain.
// Samples() builds one exact-size header slice in drain order whose
// Deltas are the kept delta arrays' rows, capped at the event count; after
// it the controller references no batch, and Tool.Collect's totals are
// the sums over the drains.
func TestControllerKeepsDrainBatches(t *testing.T) {
	m := machine.Boot(quietProfile(), 73)
	script := targetScript(200_000_000)
	prog := script.Program()
	target := m.Kernel().SpawnStopped(script.Name, prog)
	tool := &Tool{DrainInterval: 10 * ktime.Millisecond}
	cfg := stdConfig(100 * ktime.Microsecond)
	if err := tool.Attach(m, target, prog, cfg); err != nil {
		t.Fatal(err)
	}
	m.Kernel().Resume(target)
	if err := m.Kernel().Run(0); err != nil {
		t.Fatal(err)
	}
	batches := slices.Clone(tool.ctl.batches)
	if len(batches) < 3 {
		t.Fatalf("%d drain batches; the test needs several", len(batches))
	}
	w := len(cfg.Events)
	n := 0
	sums := make([]uint64, w)
	for d, b := range batches {
		if len(b.Times) == 0 || cap(b.Times) != len(b.Times) || len(b.Deltas) != w*len(b.Times) || cap(b.Deltas) != len(b.Deltas) {
			t.Fatalf("drain %d: times len %d cap %d, deltas len %d cap %d; want exact sizes n and %d·n",
				d, len(b.Times), cap(b.Times), len(b.Deltas), cap(b.Deltas), w)
		}
		n += len(b.Times)
		for i, v := range b.Deltas {
			sums[i%w] += v
		}
	}
	got := tool.ctl.Samples()
	if len(got) != n || cap(got) != n {
		t.Fatalf("Samples() has len %d cap %d, want len = cap = %d", len(got), cap(got), n)
	}
	i := 0
	for d, b := range batches {
		for j, tm := range b.Times {
			s, row := got[i], b.Deltas[j*w:(j+1)*w]
			if s.Time != tm || !slices.Equal(s.Deltas, row) {
				t.Fatalf("sample %d = %v, drain %d row %d holds %v %v", i, s, d, j, tm, row)
			}
			if cap(s.Deltas) != w || &s.Deltas[0] != &row[0] {
				t.Fatalf("sample %d's deltas are not drain %d's row capped at %d events (cap %d)", i, d, w, cap(s.Deltas))
			}
			if i > 0 && s.Time <= got[i-1].Time {
				t.Fatalf("sample %d at %v does not follow %v: batches out of drain order", i, s.Time, got[i-1].Time)
			}
			i++
		}
	}
	if again := tool.ctl.Samples(); &again[0] != &got[0] {
		t.Error("a second Samples() call built the headers again")
	}
	if tool.ctl.batches != nil {
		t.Errorf("the controller still references %d batches after Samples()", len(tool.ctl.batches))
	}
	if tool.ctl.pending.Times != nil || tool.ctl.pending.Deltas != nil {
		t.Error("the last batch is still referenced as pending after it was logged")
	}
	res := tool.Collect()
	for i, ev := range cfg.Events {
		if res.Totals[ev] != sums[i] {
			t.Errorf("%v total %d, per-drain sums give %d", ev, res.Totals[ev], sums[i])
		}
	}
	if got := res.Totals[isa.EvInstructions]; got != script.TotalInstr() {
		t.Errorf("instructions %d, want %d", got, script.TotalInstr())
	}
}

// stoppingController configures, starts, waits a fixed time, then issues
// CmdStop while the target is still running — the paper's "user issues the
// stop monitoring command" path (Fig 2 step 4) — and drains what was
// collected.
type stoppingController struct {
	cfg     ModuleConfig
	stopAt  ktime.Duration
	Samples []monitor.Sample
	stage   int
}

func (c *stoppingController) Next(k *kernel.Kernel, p *kernel.Process) kernel.Op {
	switch c.stage {
	case 0:
		c.stage = 1
		return ioctlOp("KLEB_CONFIG", CmdConfig, c.cfg)
	case 1:
		c.stage = 2
		return ioctlOp("KLEB_START", CmdStart, nil)
	case 2:
		c.stage = 3
		return kernel.OpSleep{D: c.stopAt, HR: true}
	case 3:
		c.stage = 4
		return ioctlOp("KLEB_STOP", CmdStop, nil)
	case 4:
		c.stage = 5
		return ioctlOp("KLEB_READ", CmdRead, ReadRequest{Max: ReadMax})
	case 5:
		if got, ok := p.SyscallResult.(Batch); ok {
			for i := range got.Times {
				c.Samples = append(c.Samples, got.Sample(i))
			}
		}
		return kernel.OpExit{}
	}
	return kernel.OpExit{}
}

func TestStopWhileTargetRunning(t *testing.T) {
	m := machine.Boot(quietProfile(), 40)
	k := m.Kernel()
	mod := NewModule()
	if err := k.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	target := k.Spawn("runner", targetScript(400_000_000).Program())
	ctl := &stoppingController{
		cfg: ModuleConfig{
			Events:        []isa.Event{isa.EvInstructions},
			Period:        ktime.Millisecond,
			Target:        target.PID(),
			ExcludeKernel: true,
		},
		stopAt: 20 * ktime.Millisecond,
	}
	k.Spawn("ctl", ctl)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !target.Exited() {
		t.Fatal("target should run to completion after monitoring stops")
	}
	if len(ctl.Samples) == 0 {
		t.Fatal("no samples collected before the stop")
	}
	// Counting stopped at ~20ms: totals cover the prefix only.
	var got uint64
	for _, s := range ctl.Samples {
		got += s.Deltas[0]
	}
	if got == 0 || got >= 400_000_000 {
		t.Errorf("stopped monitoring should see a strict prefix: %d", got)
	}
	// No sample is timestamped after the stop (plus a small drain margin).
	last := ctl.Samples[len(ctl.Samples)-1].Time
	if last > ktime.Time(25*ktime.Millisecond) {
		t.Errorf("sample at %v after the stop", last)
	}
	// The module is restartable after a stop: a fresh configure succeeds.
	if err := mod.configure(ctl.cfg); err != nil {
		t.Errorf("reconfigure after stop: %v", err)
	}
}

func TestControllerAbortsOnModuleError(t *testing.T) {
	// A CONFIG rejected by the module (dead target PID) must make the
	// controller exit with an error, not poll a dead module forever.
	m := machine.Boot(quietProfile(), 41)
	k := m.Kernel()
	if err := k.LoadModule(NewModule()); err != nil {
		t.Fatal(err)
	}
	ctl := NewController(ModuleConfig{
		Events: []isa.Event{isa.EvInstructions},
		Period: ktime.Millisecond,
		Target: 999, // no such process
	})
	proc := k.Spawn("ctl", ctl)
	if err := k.Run(ktime.Second); err != nil {
		t.Fatal(err)
	}
	if !proc.Exited() || proc.ExitCode() == 0 {
		t.Errorf("controller should exit non-zero: state=%v code=%d", proc.State(), proc.ExitCode())
	}
	if ctl.Err == nil {
		t.Error("controller did not record the module error")
	}
	if k.Now() > ktime.Time(10*ktime.Millisecond) {
		t.Errorf("abort took %v; controller lingered", k.Now())
	}
}

func TestTwoKLEBStacksOnTwoCores(t *testing.T) {
	// A full K-LEB stack (module + controller) per core of one socket,
	// monitoring independent targets concurrently: both must stay exact,
	// proving there is no cross-core monitoring state.
	cluster := machine.BootCluster(quietProfile(), 50, 2)
	scripts := [2]workload.Script{
		workload.Synthetic{Name: "t0", TotalInstr: 120_000_000, BlockInstr: 100_000, Footprint: 128 << 10}.Script(),
		workload.Synthetic{Name: "t1", TotalInstr: 90_000_000, BlockInstr: 100_000, Footprint: 128 << 10}.Script(),
	}
	var tools [2]*Tool
	for i, m := range cluster.Cores() {
		prog := scripts[i].Program()
		target := m.Kernel().SpawnStopped(scripts[i].Name, prog)
		tools[i] = New()
		if err := tools[i].Attach(m, target, prog, monitor.Config{
			Events: []isa.Event{isa.EvInstructions, isa.EvLoads},
			Period: ktime.Millisecond, ExcludeKernel: true,
		}); err != nil {
			t.Fatal(err)
		}
		m.Kernel().Resume(target)
	}
	if err := cluster.Run(0); err != nil {
		t.Fatal(err)
	}
	for i := range tools {
		res := tools[i].Collect()
		if got := res.Totals[isa.EvInstructions]; got != scripts[i].TotalInstr() {
			t.Errorf("core %d: instructions %d want %d (cross-core leakage?)",
				i, got, scripts[i].TotalInstr())
		}
		if len(res.Samples) < 20 {
			t.Errorf("core %d: only %d samples", i, len(res.Samples))
		}
	}
}
