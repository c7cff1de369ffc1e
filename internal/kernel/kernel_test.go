package kernel

import (
	"errors"
	"strings"
	"testing"

	"kleb/internal/cache"
	"kleb/internal/cpu"
	"kleb/internal/isa"
	"kleb/internal/ktime"
	"kleb/internal/pmu"
)

func testEventTable() *pmu.EventTable {
	return pmu.TableFromClasses("test", map[pmu.Encoding]isa.Event{
		{EventSel: 0x2E, Umask: 0x41}: isa.EvLLCMisses,
		{EventSel: 0x2E, Umask: 0x4F}: isa.EvLLCRefs,
		{EventSel: 0x0B, Umask: 0x01}: isa.EvLoads,
		{EventSel: 0x0B, Umask: 0x02}: isa.EvStores,
		{EventSel: 0xC4, Umask: 0x00}: isa.EvBranches,
		{EventSel: 0xC5, Umask: 0x00}: isa.EvBranchMisses,
	})
}

func testCPU(seed uint64) *cpu.Core {
	cfg := cpu.Config{
		Freq:              ktime.MHz(2000),
		BaseCPI:           0.5,
		BranchMissPenalty: 15,
		FlushCycles:       50,
		Hierarchy: cache.HierarchyConfig{
			L1D:              cache.Config{Name: "L1D", Size: 32 << 10, LineSize: 64, Ways: 8, LatencyCycles: 4},
			L2:               cache.Config{Name: "L2", Size: 256 << 10, LineSize: 64, Ways: 8, LatencyCycles: 10},
			LLC:              cache.Config{Name: "LLC", Size: 4 << 20, LineSize: 64, Ways: 16, LatencyCycles: 38},
			MemLatencyCycles: 200,
		},
		MaxSimAccesses: 256,
	}
	return cpu.New(cfg, pmu.New(testEventTable()), ktime.NewRand(seed))
}

// quietCosts returns a deterministic cost model (no noise) for exact tests.
func quietCosts() CostModel {
	c := DefaultCosts()
	c.NoiseRel = 0
	c.TimerJitterRel = 0
	c.RunNoiseRel = 0
	return c
}

func testKernel(seed uint64) *Kernel {
	return New(testCPU(seed), quietCosts(), ktime.NewRand(seed), Options{})
}

// workBlock is a small user block.
func workBlock(instr uint64) isa.Block {
	return isa.Block{
		Instr: instr, Loads: instr / 4, Stores: instr / 10, Branches: instr / 10,
		Mem:  isa.MemPattern{Base: 0xA000_0000, Footprint: 32 << 10, Stride: 8},
		Priv: isa.User,
	}
}

// burner runs n blocks then exits.
func burner(blocks int, instr uint64) Program {
	i := 0
	return ProgramFunc(func(k *Kernel, p *Process) Op {
		if i >= blocks {
			return OpExit{Code: 7}
		}
		i++
		return OpExec{Block: workBlock(instr)}
	})
}

func TestSingleProcessRunsToExit(t *testing.T) {
	k := testKernel(1)
	p := k.Spawn("solo", burner(10, 100_000))
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !p.Exited() || p.ExitCode() != 7 {
		t.Fatalf("state %v code %d", p.State(), p.ExitCode())
	}
	if p.UserTime() == 0 {
		t.Error("no user time")
	}
	if p.Runtime() == 0 {
		t.Error("no runtime")
	}
	if p.Runtime() < p.UserTime() {
		t.Error("runtime below user time")
	}
}

func TestNilOpMeansExit(t *testing.T) {
	k := testKernel(1)
	p := k.Spawn("nil", ProgramFunc(func(*Kernel, *Process) Op { return nil }))
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !p.Exited() {
		t.Error("nil op should exit the process")
	}
}

func TestRoundRobinSharing(t *testing.T) {
	k := testKernel(2)
	// Enough work for ~10 timeslices each.
	a := k.Spawn("a", burner(1600, 100_000))
	b := k.Spawn("b", burner(1600, 100_000))
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	// Both did the same work; their user times must be close and both must
	// have context-switched repeatedly.
	ra := float64(a.UserTime()) / float64(b.UserTime())
	if ra < 0.9 || ra > 1.1 {
		t.Errorf("unfair scheduling: %v vs %v", a.UserTime(), b.UserTime())
	}
	if a.Switches() < 5 || b.Switches() < 5 {
		t.Errorf("expected many switches: a=%d b=%d", a.Switches(), b.Switches())
	}
	// They interleaved: neither finished before the other started its
	// second slice.
	if a.ExitTime() < b.FirstRun() || b.ExitTime() < a.FirstRun() {
		t.Error("no interleaving")
	}
}

func TestJiffySleepRoundsUp(t *testing.T) {
	k := testKernel(3)
	var woke ktime.Time
	stage := 0
	k.Spawn("sleeper", ProgramFunc(func(k *Kernel, p *Process) Op {
		switch stage {
		case 0:
			stage = 1
			return OpSleep{D: 3 * ktime.Millisecond} // rounds to 10ms jiffy
		default:
			woke = k.Now()
			return OpExit{}
		}
	}))
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	// Wakeup lands on (or just past) the next 10ms boundary.
	if woke < ktime.Time(10*ktime.Millisecond) {
		t.Errorf("jiffy sleep woke early at %v", woke)
	}
	if woke > ktime.Time(10*ktime.Millisecond+100*ktime.Microsecond) {
		t.Errorf("jiffy sleep woke too late at %v", woke)
	}
}

func TestHRSleepIsPrecise(t *testing.T) {
	k := testKernel(4)
	var woke ktime.Time
	stage := 0
	k.Spawn("hr-sleeper", ProgramFunc(func(k *Kernel, p *Process) Op {
		switch stage {
		case 0:
			stage = 1
			return OpSleep{D: 3 * ktime.Millisecond, HR: true}
		default:
			woke = k.Now()
			return OpExit{}
		}
	}))
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	lo := ktime.Time(3 * ktime.Millisecond)
	hi := lo.Add(50 * ktime.Microsecond) // latency + handler costs
	if woke < lo || woke > hi {
		t.Errorf("HR sleep woke at %v, want within [%v, %v]", woke, lo, hi)
	}
}

func TestSleepUntilAbsolute(t *testing.T) {
	k := testKernel(5)
	var woke ktime.Time
	stage := 0
	k.Spawn("abs", ProgramFunc(func(k *Kernel, p *Process) Op {
		switch stage {
		case 0:
			stage = 1
			return OpExec{Block: workBlock(1_000_000)} // consume some time first
		case 1:
			stage = 2
			return OpSleep{Until: ktime.Time(30 * ktime.Millisecond)}
		default:
			woke = k.Now()
			return OpExit{}
		}
	}))
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if woke < ktime.Time(30*ktime.Millisecond) || woke > ktime.Time(30*ktime.Millisecond+100*ktime.Microsecond) {
		t.Errorf("absolute sleep woke at %v", woke)
	}
}

func TestSyscallResultDelivery(t *testing.T) {
	k := testKernel(6)
	var got any
	stage := 0
	k.Spawn("sys", ProgramFunc(func(k *Kernel, p *Process) Op {
		switch stage {
		case 0:
			stage = 1
			return OpSyscall{Name: "answer", Fn: func(*Kernel, *Process) any { return 42 }}
		default:
			got = p.SyscallResult
			return OpExit{}
		}
	}))
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("syscall result %v", got)
	}
}

func TestSyscallChargesKernelTime(t *testing.T) {
	k := testKernel(7)
	stage := 0
	p := k.Spawn("sys", ProgramFunc(func(k *Kernel, p *Process) Op {
		if stage == 0 {
			stage = 1
			return OpSyscall{Name: "work", Fn: func(k *Kernel, p *Process) any {
				k.ChargeKernel(100 * ktime.Microsecond)
				return nil
			}}
		}
		return OpExit{}
	}))
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.KernelTime() < 100*ktime.Microsecond {
		t.Errorf("kernel time %v below handler charge", p.KernelTime())
	}
}

func TestSpawnFiresForkProbes(t *testing.T) {
	k := testKernel(8)
	var parentPID, childPID PID
	k.RegisterForkProbe(func(k *Kernel, parent, child *Process) {
		parentPID, childPID = parent.PID(), child.PID()
	})
	stage := 0
	var spawned PID
	par := k.Spawn("parent", ProgramFunc(func(k *Kernel, p *Process) Op {
		switch stage {
		case 0:
			stage = 1
			return OpSpawn{Name: "child", Prog: burner(2, 50_000)}
		case 1:
			stage = 2
			spawned, _ = p.SyscallResult.(PID)
			fallthrough
		default:
			if c, ok := k.Process(spawned); ok && !c.Exited() {
				return OpSleep{D: ktime.Millisecond}
			}
			return OpExit{}
		}
	}))
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if parentPID != par.PID() || childPID == 0 || childPID == par.PID() {
		t.Errorf("fork probe saw parent=%d child=%d", parentPID, childPID)
	}
	child, ok := k.Process(childPID)
	if !ok || child.PPID() != par.PID() {
		t.Error("child lineage wrong")
	}
}

func TestExitProbesAndSwitchToIdle(t *testing.T) {
	k := testKernel(9)
	var exited []string
	k.RegisterExitProbe(func(k *Kernel, p *Process) {
		exited = append(exited, p.Name())
	})
	var sawExitSwitch bool
	k.RegisterSwitchProbe(func(k *Kernel, prev, next *Process) {
		if prev != nil && next == nil && prev.Name() == "x" {
			sawExitSwitch = true
		}
	})
	k.Spawn("x", burner(2, 10_000))
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(exited) != 1 || exited[0] != "x" {
		t.Errorf("exit probes: %v", exited)
	}
	if !sawExitSwitch {
		t.Error("exit must look like a switch to idle for gating hooks")
	}
}

func TestSwitchProbesSeePrevAndNext(t *testing.T) {
	k := testKernel(10)
	type sw struct{ prev, next string }
	var seen []sw
	k.RegisterSwitchProbe(func(k *Kernel, prev, next *Process) {
		name := func(p *Process) string {
			if p == nil {
				return "idle"
			}
			return p.Name()
		}
		seen = append(seen, sw{name(prev), name(next)})
	})
	k.Spawn("a", burner(800, 200_000))
	k.Spawn("b", burner(800, 200_000))
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	var ab, ba bool
	for _, s := range seen {
		if s.prev == "a" && s.next == "b" {
			ab = true
		}
		if s.prev == "b" && s.next == "a" {
			ba = true
		}
	}
	if !ab || !ba {
		t.Errorf("round robin should switch both ways; saw %v", seen[:minInt(8, len(seen))])
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestUnregisterProbes(t *testing.T) {
	k := testKernel(11)
	count := 0
	id := k.RegisterSwitchProbe(func(*Kernel, *Process, *Process) { count++ })
	fid := k.RegisterForkProbe(func(*Kernel, *Process, *Process) { count++ })
	eid := k.RegisterExitProbe(func(*Kernel, *Process) { count++ })
	k.UnregisterSwitchProbe(id)
	k.UnregisterForkProbe(fid)
	k.UnregisterExitProbe(eid)
	k.Spawn("p", burner(2, 10_000))
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Errorf("unregistered probes fired %d times", count)
	}
}

func TestHRTimerPeriodicFiring(t *testing.T) {
	k := testKernel(12)
	var fires []ktime.Time
	k.StartHRTimer(ktime.Millisecond, ktime.Millisecond, func(k *Kernel, tm *HRTimer) bool {
		fires = append(fires, k.Now())
		return len(fires) < 10
	})
	k.Spawn("busy", burner(1000, 100_000))
	if err := k.Run(20 * ktime.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(fires) != 10 {
		t.Fatalf("fires: %d", len(fires))
	}
	for i := 1; i < len(fires); i++ {
		gap := fires[i].Sub(fires[i-1])
		if gap < 900*ktime.Microsecond || gap > 1100*ktime.Microsecond {
			t.Errorf("gap %d: %v", i, gap)
		}
	}
}

func TestHRTimerCancel(t *testing.T) {
	k := testKernel(13)
	fired := 0
	tm := k.StartHRTimer(ktime.Millisecond, ktime.Millisecond, func(*Kernel, *HRTimer) bool {
		fired++
		return true
	})
	k.CancelHRTimer(tm)
	if tm.Active() {
		t.Error("canceled timer still active")
	}
	k.Spawn("busy", burner(100, 100_000))
	if err := k.Run(10 * ktime.Millisecond); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Errorf("canceled timer fired %d times", fired)
	}
	k.CancelHRTimer(tm) // double cancel is safe
	k.CancelHRTimer(nil)
}

func TestHRTimerFiresWhileIdle(t *testing.T) {
	k := testKernel(14)
	fired := false
	k.StartHRTimer(5*ktime.Millisecond, 0, func(k *Kernel, tm *HRTimer) bool {
		fired = true
		return false
	})
	stage := 0
	k.Spawn("sleepy", ProgramFunc(func(k *Kernel, p *Process) Op {
		if stage == 0 {
			stage = 1
			return OpSleep{D: 20 * ktime.Millisecond}
		}
		return OpExit{}
	}))
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("one-shot timer did not fire during idle")
	}
	if k.IdleTime() == 0 {
		t.Error("idle time not accounted")
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := testKernel(15)
	// A process that sleeps forever without any timer: impossible state is
	// prevented by construction, so force it with a stopped process.
	k.SpawnStopped("never", burner(1, 1))
	err := k.Run(0)
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("want deadlock error, got %v", err)
	}
}

func TestRunTimeLimit(t *testing.T) {
	k := testKernel(16)
	k.Spawn("forever", ProgramFunc(func(*Kernel, *Process) Op {
		return OpExec{Block: workBlock(100_000)}
	}))
	if err := k.Run(5 * ktime.Millisecond); err != nil {
		t.Fatal(err)
	}
	if k.Now() < ktime.Time(5*ktime.Millisecond) || k.Now() > ktime.Time(6*ktime.Millisecond) {
		t.Errorf("time limit not honored: %v", k.Now())
	}
}

func TestDaemonDoesNotBlockExit(t *testing.T) {
	k := testKernel(17)
	k.SpawnDaemon("daemon", ProgramFunc(func(k *Kernel, p *Process) Op {
		return OpSleep{D: ktime.Millisecond}
	}))
	k.Spawn("main", burner(5, 50_000))
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestStoppedThenResumed(t *testing.T) {
	k := testKernel(18)
	p := k.SpawnStopped("stopped", burner(2, 10_000))
	if p.State() != StateStopped {
		t.Fatalf("state %v", p.State())
	}
	k.Spawn("first", burner(2, 10_000))
	k.Resume(p)
	k.Resume(p) // idempotent
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !p.Exited() {
		t.Error("resumed process did not run")
	}
	if p.FirstRun() == 0 && p.Runtime() == 0 {
		t.Error("first-run accounting missing")
	}
}

func TestWakeupPreemption(t *testing.T) {
	k := testKernel(19)
	var ranAt ktime.Time
	wokeAt := ktime.Time(10 * ktime.Millisecond)
	stage := 0
	k.Spawn("sleeper", ProgramFunc(func(k *Kernel, p *Process) Op {
		switch stage {
		case 0:
			stage = 1
			// HR sleep wakes precisely at 10ms (modulo interrupt latency).
			return OpSleep{D: 10 * ktime.Millisecond, HR: true}
		case 1:
			stage = 2
			ranAt = k.Now()
			return OpExit{}
		}
		return OpExit{}
	}))
	k.Spawn("hog", burner(10_000, 100_000))
	if err := k.Run(50 * ktime.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The sleeper must run shortly after its wakeup, not a whole
	// hog-timeslice later.
	if ranAt.Sub(wokeAt) > 500*ktime.Microsecond {
		t.Errorf("wakeup preemption too slow: woke %v ran %v", wokeAt, ranAt)
	}
}

func TestChargeKernelFeedsPMU(t *testing.T) {
	k := testKernel(20)
	pm := k.Core().PMU()
	// Kernel-mode-only counters: branches, which ChargeKernel synthesizes,
	// and LLC misses, which it leaves at zero.
	for i, enc := range []pmu.Encoding{{EventSel: 0xC4, Umask: 0x00}, {EventSel: 0x2E, Umask: 0x41}} {
		if err := pm.WriteMSR(pmu.MSRPerfEvtSel0+uint32(i), enc.Sel(pmu.SelOS|pmu.SelEn)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pm.WriteMSR(pmu.MSRGlobalCtrl, 0b11); err != nil {
		t.Fatal(err)
	}
	// Two different charges back to back, noise off: each must count
	// exactly its own cycles/16 branches, so a charge vector that kept or
	// accumulated the previous charge's counts fails.
	var elapsed, before uint64
	for _, d := range []ktime.Duration{10 * ktime.Microsecond, 3 * ktime.Microsecond} {
		k.ChargeKernel(d)
		elapsed += uint64(d)
		v, _ := pm.ReadMSR(pmu.MSRPmc0)
		if want := ktime.MHz(2000).Cycles(d) / 16; v-before != want {
			t.Errorf("ChargeKernel(%v) counted %d kernel branches, want %d", d, v-before, want)
		}
		before = v
		if k.Now() != ktime.Time(elapsed) {
			t.Errorf("clock %v after %v of charges", k.Now(), ktime.Duration(elapsed))
		}
	}
	if v, _ := pm.ReadMSR(pmu.MSRPmc0 + 1); v != 0 {
		t.Errorf("kernel charges counted %d LLC misses, want 0", v)
	}
}

func TestModuleLifecycle(t *testing.T) {
	k := testKernel(21)
	m := &fakeModule{}
	if err := k.LoadModule(m); err != nil {
		t.Fatal(err)
	}
	if err := k.LoadModule(&fakeModule{}); err == nil {
		t.Error("duplicate module load should fail")
	}
	if _, ok := k.Module("fake"); !ok {
		t.Error("module not registered")
	}
	if err := k.UnloadModule("fake"); err != nil {
		t.Fatal(err)
	}
	if !m.exited {
		t.Error("Exit not called")
	}
	if err := k.UnloadModule("fake"); err == nil {
		t.Error("double unload should fail")
	}
}

type fakeModule struct{ exited bool }

func (m *fakeModule) ModuleName() string   { return "fake" }
func (m *fakeModule) Init(k *Kernel) error { return k.RegisterDevice("fakedev", m.ioctl) }
func (m *fakeModule) Exit(k *Kernel)       { k.UnregisterDevice("fakedev"); m.exited = true }
func (m *fakeModule) ioctl(k *Kernel, p *Process, cmd uint32, arg any) (any, error) {
	return cmd * 2, nil
}

func TestIoctlDispatch(t *testing.T) {
	k := testKernel(22)
	if err := k.LoadModule(&fakeModule{}); err != nil {
		t.Fatal(err)
	}
	var got any
	var gotErr error
	stage := 0
	k.Spawn("ctl", ProgramFunc(func(k *Kernel, p *Process) Op {
		if stage == 0 {
			stage = 1
			return OpSyscall{Name: "ioctl", Fn: func(k *Kernel, p *Process) any {
				res, err := k.Ioctl(p, "fakedev", 21, nil)
				got, gotErr = res, err
				_, missErr := k.Ioctl(p, "nodev", 1, nil)
				if missErr == nil {
					t.Error("ioctl to unknown device should fail")
				}
				return nil
			}}
		}
		return OpExit{}
	}))
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if gotErr != nil || got != uint32(42) {
		t.Errorf("ioctl result %v err %v", got, gotErr)
	}
}

func TestDeviceConflict(t *testing.T) {
	k := testKernel(23)
	if err := k.RegisterDevice("d", func(*Kernel, *Process, uint32, any) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := k.RegisterDevice("d", nil); err == nil || !strings.Contains(err.Error(), "already") {
		t.Errorf("conflict not detected: %v", err)
	}
}

func TestProcessesListing(t *testing.T) {
	k := testKernel(24)
	k.Spawn("a", burner(1, 1000))
	k.Spawn("b", burner(1, 1000))
	procs := k.Processes()
	if len(procs) != 2 || procs[0].Name() != "a" || procs[1].Name() != "b" {
		t.Errorf("listing wrong: %d", len(procs))
	}
	if _, ok := k.Process(999); ok {
		t.Error("bogus PID resolved")
	}
}

func TestDeterministicKernelRuns(t *testing.T) {
	run := func() ktime.Time {
		k := testKernel(55)
		k.Spawn("a", burner(50, 120_000))
		k.Spawn("b", burner(30, 80_000))
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		return k.Now()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
}

func TestTimerJitterWithNoise(t *testing.T) {
	costs := DefaultCosts() // noisy
	k := New(testCPU(30), costs, ktime.NewRand(30), Options{})
	var gaps []ktime.Duration
	var last ktime.Time
	k.StartHRTimer(100*ktime.Microsecond, 100*ktime.Microsecond, func(k *Kernel, tm *HRTimer) bool {
		if last != 0 {
			gaps = append(gaps, k.Now().Sub(last))
		}
		last = k.Now()
		return len(gaps) < 200
	})
	k.Spawn("busy", burner(100_000, 50_000))
	if err := k.Run(40 * ktime.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(gaps) < 100 {
		t.Fatalf("too few gaps: %d", len(gaps))
	}
	var sum float64
	for _, g := range gaps {
		sum += float64(g)
	}
	mean := sum / float64(len(gaps))
	if mean < 95e3 || mean > 110e3 {
		t.Errorf("mean gap %.0fns far from 100µs", mean)
	}
	// Jitter exists but stays bounded.
	var varsum float64
	for _, g := range gaps {
		d := float64(g) - mean
		varsum += d * d
	}
	std := varsum / float64(len(gaps))
	if std == 0 {
		t.Error("expected nonzero timer jitter with noisy costs")
	}
}

func TestIntrospection(t *testing.T) {
	k := testKernel(60)
	if err := k.LoadModule(&fakeModule{}); err != nil {
		t.Fatal(err)
	}
	var traced strings.Builder
	stop := k.TraceSyscalls(&traced)
	stage := 0
	k.Spawn("tracer-target", ProgramFunc(func(k *Kernel, p *Process) Op {
		switch stage {
		case 0:
			stage = 1
			return OpSyscall{Name: "getpid", Fn: func(*Kernel, *Process) any { return p.PID() }}
		case 1:
			stage = 2
			return OpSleep{D: ktime.Millisecond}
		default:
			return OpExit{}
		}
	}))
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	out := traced.String()
	for _, want := range []string{"getpid", "nanosleep", "tracer-target"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	stop()
	// After stop, no further lines are emitted.
	before := traced.Len()
	k2target := k.Spawn("late", ProgramFunc(func(k *Kernel, p *Process) Op {
		return OpExit{}
	}))
	_ = k2target
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if traced.Len() != before {
		t.Error("trace continued after stop")
	}

	var dump strings.Builder
	k.DumpState(&dump)
	for _, want := range []string{"clock", "modules [fake]", "devices [fakedev]", "tracer-target", "PID"} {
		if !strings.Contains(dump.String(), want) {
			t.Errorf("state dump missing %q:\n%s", want, dump.String())
		}
	}
}

func TestWaitpid(t *testing.T) {
	k := testKernel(61)
	var childPID PID
	var resumedAt ktime.Time
	stage := 0
	parent := k.Spawn("parent", ProgramFunc(func(k *Kernel, p *Process) Op {
		switch stage {
		case 0:
			stage = 1
			return OpSpawn{Name: "child", Prog: burner(20, 200_000)}
		case 1:
			stage = 2
			childPID, _ = p.SyscallResult.(PID)
			return OpWait{PID: childPID}
		case 2:
			stage = 3
			resumedAt = k.Now()
			return OpExit{}
		}
		return OpExit{}
	}))
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	child, _ := k.Process(childPID)
	if !child.Exited() || !parent.Exited() {
		t.Fatal("processes did not finish")
	}
	// The parent resumed only after the child's exit, promptly.
	if resumedAt < child.ExitTime() {
		t.Errorf("waitpid returned at %v before child exit %v", resumedAt, child.ExitTime())
	}
	if resumedAt.Sub(child.ExitTime()) > 100*ktime.Microsecond {
		t.Errorf("waitpid wake latency %v", resumedAt.Sub(child.ExitTime()))
	}
	// While waiting, the parent burned no CPU: its user time is tiny.
	if parent.UserTime() > ktime.Millisecond {
		t.Errorf("waiting parent consumed %v of CPU", parent.UserTime())
	}
}

func TestWaitpidOnDeadProcessReturnsImmediately(t *testing.T) {
	k := testKernel(62)
	stage := 0
	var waitedAt, resumedAt ktime.Time
	k.Spawn("w", ProgramFunc(func(k *Kernel, p *Process) Op {
		switch stage {
		case 0:
			stage = 1
			waitedAt = k.Now()
			return OpWait{PID: 999} // never existed
		default:
			resumedAt = k.Now()
			return OpExit{}
		}
	}))
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if resumedAt.Sub(waitedAt) > 10*ktime.Microsecond {
		t.Errorf("wait on dead pid took %v", resumedAt.Sub(waitedAt))
	}
}

func TestFilesystem(t *testing.T) {
	k := testKernel(63)
	stage := 0
	k.Spawn("writer", ProgramFunc(func(k *Kernel, p *Process) Op {
		if stage == 0 {
			stage = 1
			return OpSyscall{Name: "write", Fn: func(k *Kernel, p *Process) any {
				for _, w := range []struct {
					path string
					data []byte
				}{
					{"/var/log/a.csv", []byte("hello,")},
					{"/var/log/a.csv", []byte("world")},
					{"/tmp/b", []byte{1, 2, 3}},
				} {
					if err := k.FS().Append(w.path, w.data); err != nil {
						t.Errorf("append %s: %v", w.path, err)
					}
				}
				return nil
			}}
		}
		return OpExit{}
	}))
	before := k.Now()
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if k.Now() == before {
		t.Error("filesystem writes should cost time")
	}
	data, ok := k.FS().ReadFile("/var/log/a.csv")
	if !ok || string(data) != "hello,world" {
		t.Errorf("file contents: %q ok=%v", data, ok)
	}
	if k.FS().Size("/tmp/b") != 3 {
		t.Errorf("size: %d", k.FS().Size("/tmp/b"))
	}
	names := k.FS().Names()
	if len(names) != 2 || names[0] != "/tmp/b" || names[1] != "/var/log/a.csv" {
		t.Errorf("names: %v", names)
	}
	if _, ok := k.FS().ReadFile("/nope"); ok {
		t.Error("missing file resolved")
	}
	if err := k.FS().Remove("/tmp/b"); err != nil {
		t.Fatal(err)
	}
	if err := k.FS().Remove("/tmp/b"); err == nil {
		t.Error("double remove should fail")
	}
}
