// Package kleb implements K-LEB (Kernel — Lineage of Event Behavior), the
// paper's primary contribution: a kernel-module-based performance counter
// monitor producing precise, non-intrusive, low-overhead periodic samples.
//
// The design follows the paper's Figures 1–3:
//
//   - a kernel module owns the PMU for the monitored process: kprobes on
//     the context-switch handler enable counting and start an in-kernel
//     high-resolution timer when the process is scheduled in, and disable
//     both when it is scheduled out, isolating its counts;
//   - fork and exit probes extend tracking to the process's lineage;
//   - the HRTimer handler reads the counters every period and appends the
//     deltas to a ring buffer in kernel memory; a full buffer pauses
//     collection until the controller frees space (the safety mechanism);
//   - a user-space controller process configures the module over ioctl,
//     drains the buffer at its natural scheduling cadence, and logs the
//     samples — keeping per-sample cost off the monitored process's back.
package kleb

import (
	"fmt"

	"kleb/internal/fault"
	"kleb/internal/isa"
	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/monitor"
	"kleb/internal/pmu"
)

// DeviceName is the module's character device ("/dev/kleb").
const DeviceName = "kleb"

// Ioctl commands understood by the module.
const (
	// CmdConfig installs a ModuleConfig (events, period, target PID).
	CmdConfig uint32 = iota + 1
	// CmdStart begins tracking the configured PID.
	CmdStart
	// CmdStop ends collection, flushing a final partial sample.
	CmdStop
	// CmdRead drains up to ReadMax buffered samples.
	CmdRead
	// CmdStatus returns a Status snapshot.
	CmdStatus
)

// DefaultBufferSamples is the ring capacity when the config leaves it zero.
const DefaultBufferSamples = 8192

// MinRecommendedPeriod is the 100µs floor the paper recommends for the
// HRTimer; faster periods work but drown in interrupt jitter (§VI).
const MinRecommendedPeriod = 100 * ktime.Microsecond

// ModuleConfig is the collection configuration passed via CmdConfig.
type ModuleConfig struct {
	// Events to collect; at most pmu.NumProgrammable non-fixed events.
	Events []isa.Event
	// Period is the HRTimer sampling interval.
	Period ktime.Duration
	// Target is the initial PID to track; children are added automatically.
	Target kernel.PID
	// ExcludeKernel counts only user-mode execution when set.
	ExcludeKernel bool
	// BufferSamples sizes the kernel ring buffer (0 = default).
	BufferSamples int
}

// Status is the CmdStatus reply.
type Status struct {
	// Running reports whether collection has been started and not stopped.
	Running bool
	// Done reports that every tracked process has exited.
	Done bool
	// Available is the number of buffered samples awaiting a read.
	Available int
	// Paused reports the buffer-full safety stop is in effect.
	Paused bool
	// Dropped counts sampling periods lost to the buffer-full safety pause:
	// while paused the counters are gated off but the period clock keeps
	// running, and every elapsed period is one dropped sample.
	Dropped uint64
	// Samples counts all samples ever captured.
	Samples uint64
}

// ReadRequest is the CmdRead argument.
type ReadRequest struct {
	// Max bounds how many samples to drain in this call.
	Max int
}

// Module is the K-LEB kernel module.
//
//klebvet:ledger fires = captured + dropped + lostFault
type Module struct {
	k   *kernel.Kernel
	cfg ModuleConfig

	// msrCost and copyCost are the kernel's MSRAccess and CopyPerSample,
	// read once at Init: Costs copies the whole cost model, and rdmsr runs
	// several times per sample.
	msrCost, copyCost ktime.Duration

	// Counter plan derived from cfg: one placement per cfg.Events position,
	// produced by the PMU's constraint scheduler. K-LEB accepts only
	// single-round (non-multiplexed) schedules, so the plan is static for
	// the whole run.
	slots   []counterSlot
	uncMask uint64      // MSR_UNC_PERF_GLOBAL_CTRL enable mask (0 = no uncore events)
	evOrder []isa.Event // cfg.Events order for sample columns

	tracked map[kernel.PID]bool

	running bool
	paused  bool
	done    bool
	timer   *kernel.HRTimer
	// timerStore is the timer's backing storage and timerFn the handler
	// bound once at Init, so the switch probe re-arms with zero
	// allocations (a method-value bind per switch-in would allocate).
	timerStore kernel.HRTimer
	timerFn    kernel.HRTimerFn
	buf        *ring
	last       []uint64 // per-cfg.Events counter snapshot
	fires      uint64   // timer-handler invocations while running
	dropped    uint64   // periods lost to the buffer-full safety pause
	lostFault  uint64   // periods lost to injected faults
	captured   uint64

	// Interrupt-handler scratch, sized at configure time so the hot path
	// never allocates (enforced by TestCaptureSampleNoAlloc).
	scratchCur, scratchDelta []uint64

	switchProbe, forkProbe, exitProbe kernel.ProbeID
}

// Accounting is the module's period-conservation ledger. Every timer-handler
// invocation while the module runs ends in exactly one bucket, so
// Fires == Captured + Dropped + LostFault always holds — the invariant the
// chaos sweep asserts across fault plans.
//
//klebvet:ledger Fires = Captured + Dropped + LostFault
type Accounting struct {
	// Fires counts HRTimer handler invocations (plus final flushes that
	// produced or attempted a sample).
	Fires uint64
	// Captured counts samples pushed into the ring.
	Captured uint64
	// Dropped counts periods lost to the buffer-full safety pause.
	Dropped uint64
	// LostFault counts periods lost to injected faults (timer misfires,
	// corrupted counter reads, a full ring at final flush).
	LostFault uint64
	// Buffered is the number of samples still in the ring, not yet drained.
	Buffered int
}

// Accounting returns the module's current ledger.
func (m *Module) Accounting() Accounting {
	return Accounting{
		Fires:     m.fires,
		Captured:  m.captured,
		Dropped:   m.dropped,
		LostFault: m.lostFault,
		Buffered:  m.buflen(),
	}
}

var _ kernel.Module = (*Module)(nil)

// NewModule returns an unloaded module instance.
func NewModule() *Module { return &Module{} }

// ModuleName implements kernel.Module.
func (m *Module) ModuleName() string { return "k_leb" }

// Init implements kernel.Module: register the device and attach kprobes to
// the scheduler's switch path and to fork/exit.
func (m *Module) Init(k *kernel.Kernel) error {
	m.k = k
	costs := k.Costs()
	m.msrCost, m.copyCost = costs.MSRAccess, costs.CopyPerSample
	if err := k.RegisterDevice(DeviceName, m.ioctl); err != nil {
		return err
	}
	m.switchProbe = k.RegisterSwitchProbe(m.onSwitch)
	m.forkProbe = k.RegisterForkProbe(m.onFork)
	m.exitProbe = k.RegisterExitProbe(m.onExit)
	m.timerFn = m.onTimer
	m.tracked = make(map[kernel.PID]bool)
	return nil
}

// Exit implements kernel.Module.
func (m *Module) Exit(k *kernel.Kernel) {
	m.stop()
	k.UnregisterSwitchProbe(m.switchProbe)
	k.UnregisterForkProbe(m.forkProbe)
	k.UnregisterExitProbe(m.exitProbe)
	k.UnregisterDevice(DeviceName)
}

// ioctl is the controller-facing command interface.
func (m *Module) ioctl(k *kernel.Kernel, p *kernel.Process, cmd uint32, arg any) (any, error) {
	switch cmd {
	case CmdConfig:
		cfg, ok := arg.(ModuleConfig)
		if !ok {
			return nil, fmt.Errorf("kleb: CmdConfig needs a ModuleConfig, got %T", arg)
		}
		return nil, m.configure(cfg)
	case CmdStart:
		return nil, m.start()
	case CmdStop:
		m.stop()
		return nil, nil
	case CmdRead:
		req, ok := arg.(ReadRequest)
		if !ok {
			return nil, fmt.Errorf("kleb: CmdRead needs a ReadRequest, got %T", arg)
		}
		return m.read(req.Max), nil
	case CmdStatus:
		return Status{
			Running:   m.running,
			Done:      m.done,
			Available: m.buflen(),
			Paused:    m.paused,
			Dropped:   m.dropped,
			Samples:   m.captured,
		}, nil
	}
	return nil, fmt.Errorf("kleb: unknown ioctl %d", cmd)
}

func (m *Module) buflen() int {
	if m.buf == nil {
		return 0
	}
	return m.buf.len()
}

// counterSlot is one event's static placement: which counter pool and which
// counter within it.
type counterSlot struct {
	class pmu.CounterClass
	ctr   int
}

// configure validates and installs the collection plan.
func (m *Module) configure(cfg ModuleConfig) error {
	if m.running {
		return fmt.Errorf("kleb: cannot reconfigure while running")
	}
	if len(cfg.Events) == 0 {
		return fmt.Errorf("kleb: no events configured")
	}
	if cfg.Period == 0 {
		return fmt.Errorf("kleb: zero period")
	}
	table := m.k.Core().PMU().Table()
	nProg := 0
	for _, ev := range cfg.Events {
		if pmu.FixedIndexFor(ev) >= 0 {
			continue
		}
		d, ok := table.DescFor(ev)
		if !ok {
			return fmt.Errorf("kleb: event %v not available on this machine", ev)
		}
		if d.Unit == pmu.UnitCore {
			nProg++
		}
	}
	if nProg > pmu.NumProgrammable {
		return fmt.Errorf("kleb: %d programmable events requested, hardware has %d counters",
			nProg, pmu.NumProgrammable)
	}
	sched, err := table.Schedule(cfg.Events)
	if err != nil {
		return fmt.Errorf("kleb: %w", err)
	}
	if sched.Multiplexed() {
		// The counts fit counter-by-counter but not simultaneously (counter
		// constraints or an oversubscribed uncore pool). perf would rotate;
		// K-LEB refuses — its samples are exact by construction.
		return fmt.Errorf("kleb: %d events cannot all be counted simultaneously under this PMU's counter constraints; K-LEB does not multiplex",
			len(cfg.Events))
	}
	if _, ok := m.k.Process(cfg.Target); !ok {
		return fmt.Errorf("kleb: target pid %d does not exist", cfg.Target)
	}
	m.cfg = cfg
	m.slots = make([]counterSlot, len(cfg.Events))
	m.uncMask = 0
	for _, a := range sched.Rounds[0] {
		m.slots[a.Index] = counterSlot{class: a.Class, ctr: a.Counter}
		if a.Class == pmu.CtrUncore {
			m.uncMask |= 1 << uint(a.Counter)
		}
	}
	m.evOrder = append([]isa.Event(nil), cfg.Events...)
	m.buf = newRing(cfg.BufferSamples, len(cfg.Events))
	m.last = make([]uint64, len(cfg.Events))
	m.scratchCur = make([]uint64, len(cfg.Events))
	m.scratchDelta = make([]uint64, len(cfg.Events))
	m.fires, m.dropped, m.lostFault, m.captured = 0, 0, 0, 0
	m.paused, m.done = false, false
	return nil
}

// start begins tracking the target lineage and programs the counters.
func (m *Module) start() error {
	if m.buf == nil {
		return fmt.Errorf("kleb: start before configure")
	}
	if m.running {
		return fmt.Errorf("kleb: already running")
	}
	target, ok := m.k.Process(m.cfg.Target)
	if !ok || target.Exited() {
		return fmt.Errorf("kleb: target pid %d not alive", m.cfg.Target)
	}
	m.tracked = map[kernel.PID]bool{m.cfg.Target: true}
	m.running = true
	m.done = false
	m.programCounters()
	// The controller is running right now, so the target is scheduled out;
	// counting begins at its next switch-in.
	return nil
}

// programCounters writes the event selections and zeroes all counters.
// Called once at start; per-switch gating only toggles the global enables.
func (m *Module) programCounters() {
	p := m.k.Core().PMU()
	table := p.Table()
	flags := uint64(pmu.SelUsr)
	if !m.cfg.ExcludeKernel {
		flags |= pmu.SelOS
	}
	var fixedCtrl uint64
	for i, ev := range m.evOrder {
		s := m.slots[i]
		switch s.class {
		case pmu.CtrProgrammable:
			enc, _ := table.EncodingFor(ev)
			m.wrmsr(pmu.MSRPerfEvtSel0+uint32(s.ctr), enc.Sel(flags|pmu.SelEn))
			m.wrmsr(pmu.MSRPmc0+uint32(s.ctr), 0)
		case pmu.CtrFixed:
			nib := uint64(pmu.FixedUsr)
			if !m.cfg.ExcludeKernel {
				nib |= pmu.FixedOS
			}
			fixedCtrl |= nib << uint(4*s.ctr)
			m.wrmsr(pmu.MSRFixedCtr0+uint32(s.ctr), 0)
		case pmu.CtrUncore:
			// Uncore counters have no privilege filter: they observe
			// socket-wide traffic whoever runs.
			enc, _ := table.EncodingFor(ev)
			m.wrmsr(pmu.MSRUncEvtSel0+uint32(s.ctr), enc.Sel(uint64(pmu.SelEn)))
			m.wrmsr(pmu.MSRUncPmc0+uint32(s.ctr), 0)
		}
	}
	m.wrmsr(pmu.MSRFixedCtrCtrl, fixedCtrl)
	m.wrmsr(pmu.MSRGlobalCtrl, 0) // gated off until the target runs
	if m.uncMask != 0 {
		m.wrmsr(pmu.MSRUncGlobalCtrl, 0)
	}
	for i := range m.last {
		m.last[i] = 0
	}
}

// globalEnableMask covers exactly the core counters the plan uses.
func (m *Module) globalEnableMask() uint64 {
	var mask uint64
	for _, s := range m.slots {
		switch s.class {
		case pmu.CtrProgrammable:
			mask |= 1 << uint(s.ctr)
		case pmu.CtrFixed:
			mask |= 1 << uint(32+s.ctr)
		}
	}
	return mask
}

// onSwitch is the kprobe on the scheduler's context-switch handler: gate
// counting and the sampling timer on whether a tracked process runs next.
//
//klebvet:hotpath
func (m *Module) onSwitch(k *kernel.Kernel, prev, next *kernel.Process) {
	if !m.running {
		return
	}
	if prev != nil && m.tracked[prev.PID()] {
		m.wrmsr(pmu.MSRGlobalCtrl, 0)
		if m.uncMask != 0 {
			m.wrmsr(pmu.MSRUncGlobalCtrl, 0)
		}
		if m.timer != nil {
			k.CancelHRTimer(m.timer)
			m.timer = nil
		}
	}
	if next != nil && m.tracked[next.PID()] {
		if !m.paused {
			m.wrmsr(pmu.MSRGlobalCtrl, m.globalEnableMask())
			if m.uncMask != 0 {
				m.wrmsr(pmu.MSRUncGlobalCtrl, m.uncMask)
			}
		}
		// The timer is armed even while paused so elapsed periods keep being
		// counted as dropped (period accounting, not just a pause flag). The
		// m.timer == nil guard prevents double-arming when the probe fires
		// for a tracked→tracked switch.
		if m.timer == nil {
			k.ArmHRTimer(&m.timerStore, m.cfg.Period, m.cfg.Period, m.timerFn)
			m.timer = &m.timerStore
		}
	}
}

// onFork extends tracking to children of tracked processes — the "lineage"
// in K-LEB's name.
func (m *Module) onFork(k *kernel.Kernel, parent, child *kernel.Process) {
	if !m.running || parent == nil || child == nil {
		return
	}
	if m.tracked[parent.PID()] {
		m.tracked[child.PID()] = true
	}
}

// onExit prunes exited processes; when the whole lineage is gone, a final
// partial sample is flushed and the module marks itself done.
func (m *Module) onExit(k *kernel.Kernel, p *kernel.Process) {
	if !m.running || !m.tracked[p.PID()] {
		return
	}
	delete(m.tracked, p.PID())
	if len(m.tracked) == 0 {
		m.finalFlush()
		m.running = false
		m.done = true
		if m.timer != nil {
			k.CancelHRTimer(m.timer)
			m.timer = nil
		}
		m.wrmsr(pmu.MSRGlobalCtrl, 0)
		if m.uncMask != 0 {
			m.wrmsr(pmu.MSRUncGlobalCtrl, 0)
		}
	}
}

// onTimer is the HRTimer handler: every invocation while running is one
// sampling period, accounted to exactly one of captured / dropped /
// lost-to-fault so the ledger stays balanced under any fault plan.
//
//klebvet:hotpath
func (m *Module) onTimer(k *kernel.Kernel, t *kernel.HRTimer) bool {
	if !m.running {
		return false
	}
	m.fires++
	if m.paused {
		// Accounting mode: the counters are gated off but the timer keeps
		// firing so each elapsed period is counted as dropped, turning the
		// pause flag into a measure of how much data the safety mechanism
		// cost.
		m.dropped++
		return true
	}
	if k.Faults().TimerMisfire() {
		m.lostFault++
		k.Telemetry().FaultInjected(k.Now(), fault.KindTimerMisfire)
		return true
	}
	switch m.captureSample(false) {
	case capCorrupt:
		m.lostFault++
	case capFull:
		// Buffer full: engage the safety mechanism. Counting stops until
		// the controller drains the buffer; the timer stays armed to keep
		// the period ledger running.
		m.paused = true
		m.dropped++
		m.wrmsr(pmu.MSRGlobalCtrl, 0)
		if m.uncMask != 0 {
			m.wrmsr(pmu.MSRUncGlobalCtrl, 0)
		}
		k.Telemetry().BufferPause(k.Now(), m.dropped)
	}
	return true
}

// capResult classifies one captureSample attempt.
type capResult int

const (
	// capPushed: a sample landed in the ring.
	capPushed capResult = iota
	// capSkipped: nothing to record (all-zero final flush, or unconfigured).
	capSkipped
	// capCorrupt: a counter read failed the plausibility screen; the sample
	// was discarded and the last-snapshot left untouched, so the true counts
	// surface in the next period's delta.
	capCorrupt
	// capFull: the ring had no space.
	capFull
)

// captureSample reads all planned counters into preallocated scratch and
// appends one delta sample. When final is set, an all-zero delta is
// suppressed. The hot path allocates nothing: push copies the scratch into
// the ring's slab.
//
//klebvet:hotpath
func (m *Module) captureSample(final bool) capResult {
	if m.buf == nil {
		return capSkipped
	}
	cur, deltas := m.scratchCur, m.scratchDelta
	for i := range m.evOrder {
		switch s := m.slots[i]; s.class {
		case pmu.CtrFixed:
			cur[i] = m.rdmsr(pmu.MSRFixedCtr0 + uint32(s.ctr))
		case pmu.CtrUncore:
			cur[i] = m.rdmsr(pmu.MSRUncPmc0 + uint32(s.ctr))
		default:
			cur[i] = m.rdmsr(pmu.MSRPmc0 + uint32(s.ctr))
		}
		if v, bad := m.k.Faults().CorruptRead(cur[i]); bad {
			cur[i] = v
			m.k.Telemetry().FaultInjected(m.k.Now(), fault.KindReadCorrupt)
		}
		deltas[i] = (cur[i] - m.last[i]) & pmu.CounterMask()
	}
	// Plausibility screen: a delta this large cannot come from one sampling
	// period on real hardware, so the sample is a corrupted read. Discard it
	// without advancing m.last — the genuine counts land in the next delta.
	for _, d := range deltas {
		if d >= fault.ImplausibleDelta {
			return capCorrupt
		}
	}
	if final {
		allZero := true
		for _, d := range deltas {
			if d != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			return capSkipped
		}
	}
	// The per-sample store into the kernel buffer.
	m.k.ChargeKernel(300 * ktime.Nanosecond)
	if !m.buf.push(m.k.Now(), deltas) {
		return capFull
	}
	copy(m.last, cur)
	m.captured++
	m.k.Telemetry().SampleCaptured(m.k.Now(), m.buf.len(), len(m.buf.buf))
	return capPushed
}

// finalFlush captures the trailing partial sample at lineage exit or stop,
// keeping the period ledger balanced: a flush that produced (or attempted)
// a sample counts as one more fire in the matching bucket.
func (m *Module) finalFlush() {
	switch m.captureSample(true) {
	case capPushed:
		m.fires++
	case capCorrupt:
		m.fires++
		m.lostFault++
	case capFull:
		m.fires++
		m.dropped++
	}
}

// read drains up to max samples (CmdRead). Copying to user space costs
// CopyPerSample each. Draining below half capacity lifts a safety pause.
func (m *Module) read(max int) []monitor.Sample {
	if m.buf == nil {
		return nil
	}
	if max <= 0 {
		max = m.buf.len()
	}
	if m.k.Faults().StarveDrain() {
		// Injected drain starvation: the read returns empty as if the
		// buffer copy raced collection. The samples stay buffered; only
		// this drain's yield is lost.
		m.k.Telemetry().FaultInjected(m.k.Now(), fault.KindDrainStarve)
		return nil
	}
	out := m.buf.popN(max)
	m.k.ChargeKernel(ktime.Duration(len(out)) * m.copyCost)
	m.k.Telemetry().BufferDrain(m.k.Now(), len(out), m.buf.len())
	if m.paused && m.buf.free() >= len(m.buf.buf)/2 {
		m.paused = false
		// If a tracked process is running right now, resume immediately;
		// otherwise the next switch-in re-enables collection.
		// (The controller holds the CPU during this ioctl, so in practice
		// resumption happens at the target's next switch-in.)
	}
	return out
}

// stop ends collection (CmdStop).
func (m *Module) stop() {
	if m.buf == nil {
		return
	}
	if m.running {
		m.finalFlush()
	}
	m.running = false
	if m.timer != nil {
		m.k.CancelHRTimer(m.timer)
		m.timer = nil
	}
	m.wrmsr(pmu.MSRGlobalCtrl, 0)
	if m.uncMask != 0 {
		m.wrmsr(pmu.MSRUncGlobalCtrl, 0)
	}
}

func (m *Module) wrmsr(addr uint32, val uint64) {
	m.k.ChargeKernel(m.msrCost)
	if err := m.k.Core().PMU().WriteMSR(addr, val); err != nil {
		panic(err)
	}
}

func (m *Module) rdmsr(addr uint32) uint64 {
	m.k.ChargeKernel(m.msrCost)
	v, err := m.k.Core().PMU().ReadMSR(addr)
	if err != nil {
		panic(err)
	}
	return v
}
