package kleb

import (
	"strings"
	"testing"

	"kleb/internal/allocs"
	"kleb/internal/fault"
	"kleb/internal/isa"
	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/monitor"
	"kleb/internal/pmu"
	"kleb/internal/session"
	"kleb/internal/telemetry"
	"kleb/internal/workload"
)

// runFaulted runs the full K-LEB stack under a fault plan. The 5s limit is a
// runaway guard: a controller that polls forever (the bug class this file
// regresses against) would otherwise hang the test binary.
func runFaulted(t *testing.T, seed uint64, script workload.Script, cfg monitor.Config, plan *fault.Plan, tweak func(*Tool)) (*session.Result, *Tool) {
	t.Helper()
	sess, tool := driveFaulted(t, seed, script, cfg, plan, tweak)
	return sess.Drain(), tool
}

// driveFaulted is runFaulted up to the end of the run, before Drain
// releases the machine's storage, for tests that inspect the filesystem.
func driveFaulted(t *testing.T, seed uint64, script workload.Script, cfg monitor.Config, plan *fault.Plan, tweak func(*Tool)) (*session.Session, *Tool) {
	t.Helper()
	tool := New()
	if tweak != nil {
		tweak(tool)
	}
	sess := session.New(session.Spec{
		Profile:   quietProfile(),
		Seed:      seed,
		NewTarget: func() kernel.Program { return script.Program() },
		NewTool:   session.Use(tool),
		Config:    cfg,
		Faults:    plan,
		Limit:     5 * ktime.Second,
	})
	if err := sess.Drive(); err != nil {
		t.Fatal(err)
	}
	return sess, tool
}

// checkLedger asserts the module's period-conservation invariant: every
// timer fire landed in exactly one bucket, and every captured sample is
// either drained or still buffered.
func checkLedger(t *testing.T, tool *Tool, drained int) {
	t.Helper()
	a := tool.Accounting()
	if a.Fires != a.Captured+a.Dropped+a.LostFault {
		t.Errorf("ledger unbalanced: fires %d != captured %d + dropped %d + lost-fault %d",
			a.Fires, a.Captured, a.Dropped, a.LostFault)
	}
	if uint64(drained)+uint64(a.Buffered) != a.Captured {
		t.Errorf("samples leaked: drained %d + buffered %d != captured %d",
			drained, a.Buffered, a.Captured)
	}
}

func TestControllerRetriesTransientIoctl(t *testing.T) {
	// The first two ioctls (CONFIG and its first retry) fail transiently;
	// the controller must retry with backoff and finish the run clean.
	plan := fault.NewPlan(60)
	plan.IoctlFailFirst = 2
	script := targetScript(100_000_000)
	res, tool := runFaulted(t, 60, script, stdConfig(ktime.Millisecond), plan, nil)
	if got := tool.Retries(); got != 2 {
		t.Errorf("Retries = %d, want 2 (one per injected transient failure)", got)
	}
	if res.Result.Degraded || res.Result.Fault != "" {
		t.Errorf("transient failures within the retry budget must not degrade the run: degraded=%v fault=%q",
			res.Result.Degraded, res.Result.Fault)
	}
	if !tool.ControllerExited() {
		t.Error("controller did not exit")
	}
	if len(res.Result.Samples) == 0 {
		t.Error("no samples collected after recovering from transient faults")
	}
	// The retry backoff delays START, so the target's first few ms run
	// unmonitored: totals are a prefix, never an overcount.
	if got := res.Result.Totals[isa.EvInstructions]; got == 0 || got > script.TotalInstr() {
		t.Errorf("totals after retry: %d, want in (0, %d]", got, script.TotalInstr())
	}
	checkLedger(t, tool, len(res.Result.Samples))
}

func TestControllerAbortsOnPermanentIoctl(t *testing.T) {
	// Every ioctl after the first fails permanently (module died): the
	// controller must abort immediately — no retry budget for permanent
	// errors — and record the failing op.
	plan := fault.NewPlan(61)
	plan.IoctlDeadAfter = 1
	res, tool := runFaulted(t, 61, targetScript(50_000_000), stdConfig(ktime.Millisecond), plan, nil)
	if !tool.ControllerExited() {
		t.Fatal("controller did not exit on a permanently dead module")
	}
	if !res.Result.Degraded {
		t.Error("aborted run not marked degraded")
	}
	if !strings.Contains(res.Result.Fault, "KLEB_START") {
		t.Errorf("fault should name the failing op, got %q", res.Result.Fault)
	}
	if got := tool.Retries(); got != 0 {
		t.Errorf("permanent failure consumed %d retries, want 0", got)
	}
	if len(res.Result.Samples) != 0 {
		t.Errorf("collection never started, yet %d samples surfaced", len(res.Result.Samples))
	}
}

func TestControllerAbortsAfterStatusFailures(t *testing.T) {
	// Only KLEB_STATUS fails, always, transiently. Status is the liveness
	// probe, so the controller must give up after maxStatusFailures attempts
	// instead of retrying a blind module forever.
	plan := fault.NewPlan(62)
	plan.OnlyCmd = CmdStatus
	plan.PIoctl = 1
	res, tool := runFaulted(t, 62, targetScript(100_000_000), stdConfig(ktime.Millisecond), plan, nil)
	if !tool.ControllerExited() {
		t.Fatal("controller did not exit with status permanently failing")
	}
	if !strings.Contains(res.Result.Fault, "KLEB_STATUS") {
		t.Errorf("fault should blame KLEB_STATUS, got %q", res.Result.Fault)
	}
	if got := tool.Retries(); got != maxStatusFailures-1 {
		t.Errorf("Retries = %d, want %d (failures before the bounded abort)", got, maxStatusFailures-1)
	}
	checkLedger(t, tool, len(res.Result.Samples))
}

func TestStarvedFinalDrainIsBounded(t *testing.T) {
	// Every drain starves (returns empty with samples buffered). The module
	// finishes and reports samples available; the old controller would spin
	// on READ forever. The hardened one bounds the futile-drain loop.
	plan := fault.NewPlan(63)
	plan.PStarve = 1
	res, tool := runFaulted(t, 63, targetScript(100_000_000), stdConfig(ktime.Millisecond), plan, nil)
	if !tool.ControllerExited() {
		t.Fatal("controller never exited: the final-drain loop is unbounded again")
	}
	if !strings.Contains(res.Result.Fault, "consecutive drains") {
		t.Errorf("fault should report drain starvation, got %q", res.Result.Fault)
	}
	if !res.Result.Degraded {
		t.Error("starved run not marked degraded")
	}
	if len(res.Result.Samples) != 0 {
		t.Errorf("every drain starved, yet %d samples drained", len(res.Result.Samples))
	}
	a := tool.Accounting()
	if a.Buffered != int(a.Captured) || a.Captured == 0 {
		t.Errorf("undrained samples must stay buffered: buffered %d, captured %d", a.Buffered, a.Captured)
	}
	checkLedger(t, tool, 0)
}

func TestControllerSurvivesModuleUnload(t *testing.T) {
	// The module is ripped out (rmmod) 30ms into a ~90ms run: subsequent
	// ioctls hit a missing device. The controller must abort with partial
	// data rather than hang, and the ledger must still balance.
	plan := fault.NewPlan(64)
	plan.Unload = 30 * ktime.Millisecond
	script := targetScript(400_000_000)
	res, tool := runFaulted(t, 64, script, stdConfig(100*ktime.Microsecond), plan, func(tl *Tool) {
		tl.DrainInterval = 10 * ktime.Millisecond
	})
	if !tool.ControllerExited() {
		t.Fatal("controller did not exit after the module vanished")
	}
	if !res.Result.Degraded || res.Result.Fault == "" {
		t.Errorf("unload must degrade the run: degraded=%v fault=%q", res.Result.Degraded, res.Result.Fault)
	}
	if len(res.Result.Samples) == 0 {
		t.Error("drains before the unload should have yielded samples")
	}
	if got := res.Result.Totals[isa.EvInstructions]; got == 0 || got >= script.TotalInstr() {
		t.Errorf("partial data should be a strict prefix: %d of %d", got, script.TotalInstr())
	}
	checkLedger(t, tool, len(res.Result.Samples))
}

func TestWriteFailuresDegradeButKeepSamples(t *testing.T) {
	// Every filesystem append fails. Log writes are best-effort: the run
	// must complete with all samples in memory, marked degraded, with the
	// write fault recorded — and nothing in the simulated FS.
	plan := fault.NewPlan(65)
	plan.PFSWrite = 1
	script := targetScript(100_000_000)
	sess, tool := driveFaulted(t, 65, script, stdConfig(ktime.Millisecond), plan, nil)
	// Drain releases the filesystem, so the log is looked for before it.
	m, _ := sess.Boot()
	if _, ok := m.Kernel().FS().ReadFile(DefaultLogPath); ok {
		t.Error("every append failed, yet the log file exists")
	}
	res := sess.Drain()
	if !tool.ControllerExited() {
		t.Fatal("controller did not exit")
	}
	if !res.Result.Degraded {
		t.Error("write failures must mark the run degraded")
	}
	if !strings.Contains(res.Result.Fault, "fault: write") {
		t.Errorf("fault should record the write error, got %q", res.Result.Fault)
	}
	if got := res.Result.Totals[isa.EvInstructions]; got != script.TotalInstr() {
		t.Errorf("samples must survive log failures: totals %d, want %d", got, script.TotalInstr())
	}
	checkLedger(t, tool, len(res.Result.Samples))
}

func TestDroppedCountsElapsedPeriods(t *testing.T) {
	// Dropped must count sampling periods lost while paused, not pause
	// engagements: a 64-sample ring at 100µs with 50ms drains pauses a
	// handful of times but loses hundreds of periods per pause.
	sink := telemetry.MetricsOnly()
	tool := New()
	tool.BufferSamples = 64
	tool.DrainInterval = 50 * ktime.Millisecond
	res, err := session.Run(session.Spec{
		Profile:   quietProfile(),
		Seed:      5,
		NewTarget: func() kernel.Program { return targetScript(400_000_000).Program() },
		NewTool:   session.Use(tool),
		Config:    stdConfig(100 * ktime.Microsecond),
		Telemetry: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	pauses := sink.Registry().RingPauses.Value()
	if pauses == 0 {
		t.Fatal("scenario did not engage the safety pause")
	}
	if res.Result.Dropped <= pauses {
		t.Errorf("Dropped = %d, pauses = %d: Dropped should count elapsed periods, not pause events",
			res.Result.Dropped, pauses)
	}
	checkLedger(t, tool, len(res.Result.Samples))
}

func TestOnSwitchNoDoubleArm(t *testing.T) {
	// A spurious switch-in for an already-tracked process must not arm a
	// second HRTimer (which would double the sampling rate and leak the
	// first timer), and a paused switch-in must arm the accounting timer
	// while leaving the counters gated off.
	m := machine.Boot(quietProfile(), 67)
	k := m.Kernel()
	mod := NewModule()
	if err := k.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	target := k.Spawn("t", targetScript(1000).Program())
	cfg := ModuleConfig{
		Events: []isa.Event{isa.EvInstructions},
		Period: ktime.Millisecond,
		Target: target.PID(),
	}
	if err := mod.configure(cfg); err != nil {
		t.Fatal(err)
	}
	if err := mod.start(); err != nil {
		t.Fatal(err)
	}
	mod.onSwitch(k, nil, target)
	first := mod.timer
	if first == nil {
		t.Fatal("switch-in did not arm the sampling timer")
	}
	mod.onSwitch(k, nil, target)
	if mod.timer != first {
		t.Error("repeated switch-in double-armed the sampling timer")
	}
	mod.onSwitch(k, target, nil)
	if mod.timer != nil {
		t.Fatal("switch-out did not cancel the timer")
	}
	mod.paused = true
	mod.onSwitch(k, nil, target)
	if mod.timer == nil {
		t.Error("paused switch-in must still arm the timer (period accounting)")
	}
	if v, err := k.Core().PMU().ReadMSR(pmu.MSRGlobalCtrl); err != nil || v != 0 {
		t.Errorf("paused switch-in enabled counters: global ctrl = %d (err %v)", v, err)
	}
}

func TestCaptureSampleNoAlloc(t *testing.T) {
	// The satellite gate: the interrupt-handler capture path must not
	// allocate in steady state — scratch slices and the ring slab absorb
	// every store.
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	m := machine.Boot(quietProfile(), 68)
	k := m.Kernel()
	mod := NewModule()
	if err := k.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	target := k.Spawn("t", targetScript(1000).Program())
	cfg := ModuleConfig{
		Events: []isa.Event{isa.EvInstructions, isa.EvLoads, isa.EvLLCMisses},
		Period: 100 * ktime.Microsecond,
		Target: target.PID(),
	}
	if err := mod.configure(cfg); err != nil {
		t.Fatal(err)
	}
	if err := mod.start(); err != nil {
		t.Fatal(err)
	}
	// Grow the ring past the occupancy the measured window reaches (its
	// warm-up call and its measured call push 100 samples each), then
	// drain it: growth is the ring's only allocation, bounded per
	// configure, and this gate sees it.
	for i := 0; i < 200; i++ {
		mod.captureSample(false)
	}
	mod.read(0)
	// The window runs once and a single allocation the program makes in it
	// fails; the Go runtime's own allocations do not count (allocs.Count).
	const captures = 100
	window := func() {
		for i := 0; i < captures; i++ {
			mod.captureSample(false)
		}
	}
	if n, where := allocs.Count(window); n != 0 {
		t.Errorf("%d captures allocate %d times in total in steady state, want 0:\n%s", captures, n, where)
	}
}

// TestModuleRingGrowsOnDemand: configure allocates no ring slot, captures
// grow the ring only as occupancy requires, and a full ring still pauses
// collection at exactly BufferSamples, resuming once a drain frees half of
// it.
func TestModuleRingGrowsOnDemand(t *testing.T) {
	m := machine.Boot(quietProfile(), 69)
	k := m.Kernel()
	mod := NewModule()
	if err := k.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	target := k.Spawn("t", targetScript(1000).Program())
	const capacity = 100 // not a doubling of ringFirstSlots: the last growth is capped
	cfg := ModuleConfig{
		Events:        []isa.Event{isa.EvInstructions, isa.EvLoads},
		Period:        ktime.Millisecond,
		Target:        target.PID(),
		BufferSamples: capacity,
	}
	if err := mod.configure(cfg); err != nil {
		t.Fatal(err)
	}
	if n := len(mod.buf.buf); n != 0 {
		t.Fatalf("configure allocated %d ring slots, want 0", n)
	}
	if err := mod.start(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= capacity; i++ {
		mod.onTimer(k, nil)
		if mod.paused {
			t.Fatalf("paused after %d samples, capacity %d", i, capacity)
		}
		if i == ringFirstSlots && len(mod.buf.buf) != ringFirstSlots {
			t.Fatalf("%d samples buffered in %d slots, want %d", i, len(mod.buf.buf), ringFirstSlots)
		}
	}
	if mod.captured != capacity || len(mod.buf.buf) != capacity {
		t.Fatalf("captured %d into %d slots, want %d into %d", mod.captured, len(mod.buf.buf), capacity, capacity)
	}
	mod.onTimer(k, nil)
	if !mod.paused || mod.dropped != 1 || mod.captured != capacity {
		t.Fatalf("full ring: paused %v, dropped %d, captured %d; want paused, 1, %d",
			mod.paused, mod.dropped, mod.captured, capacity)
	}
	mod.read(capacity/2 - 1)
	if !mod.paused {
		t.Fatal("resumed with less than half the ring free")
	}
	mod.read(1)
	if mod.paused {
		t.Fatal("still paused with half the ring free")
	}
}

// TestResultSurfacesLedger checks the period-conservation ledger reaches
// monitor.Result (Fires/Captured alongside the existing Dropped and
// LostToFault), so fleet aggregation can total it without reaching into
// *kleb.Tool. The run is fault-injected so every bucket is exercised.
func TestResultSurfacesLedger(t *testing.T) {
	plan := fault.NewPlan(61)
	plan.PMisfire = 0.05
	res, tool := runFaulted(t, 61, targetScript(50_000_000), stdConfig(ktime.Millisecond), plan, nil)
	a := tool.Accounting()
	r := res.Result
	if r.Fires != a.Fires || r.Captured != a.Captured {
		t.Errorf("Result ledger (fires %d, captured %d) disagrees with Accounting (fires %d, captured %d)",
			r.Fires, r.Captured, a.Fires, a.Captured)
	}
	if r.Fires == 0 || r.Captured == 0 {
		t.Error("ledger did not surface: zero fires/captured after a sampled run")
	}
	if r.Fires != r.Captured+r.Dropped+r.LostToFault {
		t.Errorf("Result ledger unbalanced: fires %d != captured %d + dropped %d + lost %d",
			r.Fires, r.Captured, r.Dropped, r.LostToFault)
	}
}
