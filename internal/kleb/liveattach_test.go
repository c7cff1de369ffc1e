package kleb

import (
	"testing"

	"kleb/internal/isa"
	"kleb/internal/ktime"
	"kleb/internal/machine"
)

// TestAttachToAlreadyRunningProcess exercises the paper's §III claim that
// distinguishes K-LEB from LiMiT: "user programs can be profiled on an
// already running kernel as K-LEB uses a kernel module" — no restart, no
// pre-arranged launch. The target runs unmonitored for a while; the module
// is insmod-ed and the controller started mid-execution; collected totals
// cover exactly the remainder.
func TestAttachToAlreadyRunningProcess(t *testing.T) {
	m := machine.Boot(quietProfile(), 21)
	k := m.Kernel()

	script := targetScript(300_000_000)
	target := k.Spawn("long-runner", script.Program())

	// Let roughly a third of the program (~106ms total) execute with
	// nothing attached.
	if err := k.RunUntil(ktime.Time(30 * ktime.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if target.Exited() {
		t.Fatal("target finished too early for a live attach")
	}

	// insmod + controller, mid-flight.
	mod := NewModule()
	if err := k.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	ctl := NewController(ModuleConfig{
		Events:        []isa.Event{isa.EvInstructions, isa.EvLoads},
		Period:        ktime.Millisecond,
		Target:        target.PID(),
		ExcludeKernel: true,
	})
	k.Spawn("kleb-controller", ctl)

	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !target.Exited() {
		t.Fatal("target did not finish")
	}

	var got uint64
	for _, s := range ctl.Samples() {
		got += s.Deltas[0]
	}
	total := script.TotalInstr()
	if got >= total {
		t.Fatalf("late attach cannot see the whole program: got %d of %d", got, total)
	}
	// It must cover most of the remaining two thirds (attach latency is a
	// controller scheduling delay, well under a timeslice).
	if got < total/2 {
		t.Errorf("late attach saw only %d of %d instructions", got, total)
	}
	// Samples begin after the attach instant.
	if samples := ctl.Samples(); len(samples) == 0 || samples[0].Time < ktime.Time(30*ktime.Millisecond) {
		t.Error("samples predate the attach")
	}
}
