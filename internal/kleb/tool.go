package kleb

import (
	"fmt"

	"kleb/internal/fault"
	"kleb/internal/isa"
	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/monitor"
)

// Tool adapts K-LEB (module + controller) to the common monitor.Tool
// interface so the experiment harness can compare it head-to-head with the
// baselines.
type Tool struct {
	// DrainInterval overrides the controller's drain cadence (0 = default).
	DrainInterval ktime.Duration
	// BufferSamples overrides the kernel ring size (0 = default).
	BufferSamples int

	cfg     monitor.Config
	module  *Module
	ctl     *Controller
	ctlProc *kernel.Process
}

var _ monitor.Tool = (*Tool)(nil)

// New returns an unattached K-LEB tool.
func New() *Tool { return &Tool{} }

// Name implements monitor.Tool.
func (t *Tool) Name() string { return "kleb" }

// Attach loads the module into the machine's (already running) kernel and
// spawns the controller process. No access to the target's program is
// needed — K-LEB is non-intrusive by construction.
func (t *Tool) Attach(m *machine.Machine, target *kernel.Process, _ kernel.Program, cfg monitor.Config) error {
	if len(cfg.ProgrammableEvents()) > 4 {
		return fmt.Errorf("kleb: %d programmable events exceed the PMU's counters; K-LEB does not multiplex", len(cfg.ProgrammableEvents()))
	}
	// Event availability is per-microarchitecture (§VI): refuse events this
	// machine cannot encode rather than letting the module fail later.
	for _, ev := range cfg.ProgrammableEvents() {
		if _, ok := m.Core().PMU().Table().EncodingFor(ev); !ok {
			return fmt.Errorf("kleb: event %v is not available on %s", ev, m.Profile().Name)
		}
	}
	t.cfg = cfg
	t.module = NewModule()
	if err := m.Kernel().LoadModule(t.module); err != nil {
		return err
	}
	t.ctl = NewController(ModuleConfig{
		Events:        cfg.Events,
		Period:        cfg.Period,
		Target:        target.PID(),
		ExcludeKernel: cfg.ExcludeKernel,
		BufferSamples: t.BufferSamples,
	})
	if t.DrainInterval > 0 {
		t.ctl.DrainInterval = t.DrainInterval
	}
	t.ctlProc = m.Kernel().Spawn("kleb-controller", t.ctl)
	// An armed module-unload fault rips the module out mid-run (rmmod while
	// collecting): subsequent controller ioctls hit a missing device, which
	// is exactly the permanent-failure path the hardening must survive.
	if d := m.Kernel().Faults().UnloadDelay(); d > 0 {
		m.Kernel().StartHRTimer(d, 0, func(k *kernel.Kernel, _ *kernel.HRTimer) bool {
			if _, ok := k.Module(t.module.ModuleName()); ok {
				k.Telemetry().FaultInjected(k.Now(), fault.KindModuleUnload)
				// The module was just confirmed present, so the unload
				// cannot miss; a no-op failure would only mean the fault
				// fizzled.
				_ = k.UnloadModule(t.module.ModuleName())
			}
			return false
		})
	}
	return nil
}

// ControllerExited reports whether the controller process ran to an exit
// (clean or abort). Chaos runs assert this to prove the hardened controller
// terminates under every fault plan.
func (t *Tool) ControllerExited() bool {
	return t.ctlProc != nil && t.ctlProc.Exited()
}

// Retries exposes the controller's transient-retry count.
func (t *Tool) Retries() uint64 {
	if t.ctl == nil {
		return 0
	}
	return t.ctl.Retries
}

// Accounting exposes the module's period-conservation ledger.
func (t *Tool) Accounting() Accounting {
	if t.module == nil {
		return Accounting{}
	}
	return t.module.Accounting()
}

// Collect implements monitor.Tool: sample series plus exact totals (sums of
// per-period deltas including the final partial flush).
func (t *Tool) Collect() monitor.Result {
	samples := t.ctl.Samples()
	res := monitor.Result{
		Tool:    t.Name(),
		Events:  t.cfg.Events,
		Samples: samples,
		Totals:  make(map[isa.Event]uint64, len(t.cfg.Events)),
	}
	if t.module != nil {
		res.RecordLedger(t.module.fires, t.module.captured, t.module.dropped, t.module.lostFault)
	}
	if t.ctl != nil {
		res.Degraded = t.ctl.Degraded()
		if err := t.ctl.FaultError(); err != nil {
			res.Fault = err.Error()
		}
	}
	for i, ev := range t.cfg.Events {
		var sum uint64
		for _, s := range samples {
			if i < len(s.Deltas) {
				sum += s.Deltas[i]
			}
		}
		res.Totals[ev] = sum
	}
	return res
}
