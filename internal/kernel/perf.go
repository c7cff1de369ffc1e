package kernel

import (
	"fmt"

	"kleb/internal/isa"
	"kleb/internal/ktime"
	"kleb/internal/pmu"
)

// This file implements a perf_events-like kernel subsystem: per-process
// counter contexts that are scheduled in and out with the target process,
// time multiplexing when more events are requested than counters exist,
// counting reads with enabled/running times for scaling, and PMI-driven
// sampling with dynamic period adjustment (perf's frequency mode).
//
// perf stat, perf record and PAPI are all built on it, exactly as the real
// tools are built on the Linux perf_events interface. K-LEB deliberately is
// not: it programs the PMU from its own kprobes.

// EventSpec describes one requested hardware event.
type EventSpec struct {
	// Event is the hardware event to count.
	Event isa.Event
	// ExcludeKernel drops kernel-mode counts; user mode always counts.
	ExcludeKernel bool
	// SamplePeriod enables sampling mode with a fixed overflow period.
	SamplePeriod uint64
	// SampleFreq enables frequency-mode sampling: the kernel adjusts the
	// period to hit approximately this many samples per second. Mutually
	// exclusive with SamplePeriod.
	SampleFreq uint64
}

func (s EventSpec) sampling() bool { return s.SamplePeriod > 0 || s.SampleFreq > 0 }

// SampleRecord is one sampling-mode record (what perf record writes to its
// ring buffer: a timestamp and the period that elapsed).
type SampleRecord struct {
	Time   ktime.Time
	Period uint64
}

// PerfEvent is an open perf event attached to a target process.
type PerfEvent struct {
	id     int
	target *Process
	spec   EventSpec

	fixedIdx int  // fixed-counter index, or -1 for programmable events
	uncore   bool // event counts in the IMC uncore pool
	assigned int  // current counter within the event's pool, or -1

	value    uint64 // accumulated count while descheduled
	lastRead uint64 // counter snapshot at schedule-in / last fold

	// hwSaved preserves a sampling counter's raw value across context
	// switches so the partial progress toward the next overflow is not
	// discarded (counting events fold into value instead).
	hwSaved uint64
	hwValid bool

	enabled ktime.Duration
	running ktime.Duration

	period  uint64 // current sampling period (dynamic in freq mode)
	lastPMI ktime.Time

	samples []SampleRecord

	overflowFn func(k *Kernel, e *PerfEvent, rec SampleRecord)

	closed bool
}

// Samples returns the accumulated sampling records.
func (e *PerfEvent) Samples() []SampleRecord { return e.samples }

// SampledCount returns the count estimate sampling mode provides: the sum
// of elapsed periods at each overflow. The residue since the last overflow
// is invisible — the quantization error the paper's Fig 9 attributes to
// perf record.
func (e *PerfEvent) SampledCount() uint64 {
	var total uint64
	for _, s := range e.samples {
		total += s.Period
	}
	return total
}

// PerfSubsystem is the kernel's perf_events implementation.
type PerfSubsystem struct {
	k         *Kernel
	nextID    int
	byPID     map[PID][]*PerfEvent
	rot       map[PID]int // multiplexing rotation offset per target
	sched     map[PID]*pmu.Schedule
	schedIn   map[PID]ktime.Time
	muxTimers map[PID]*HRTimer
	hooked    bool
}

// MuxInterval is the multiplexing rotation period (Linux's default
// perf_event_mux_interval_ms is 4ms): a context with more programmable
// events than hardware counters re-rotates on this timer while its target
// runs, so every event accrues running time even across long timeslices.
const MuxInterval = 4 * ktime.Millisecond

func newPerfSubsystem(k *Kernel) *PerfSubsystem {
	ps := &PerfSubsystem{
		k:         k,
		byPID:     make(map[PID][]*PerfEvent),
		rot:       make(map[PID]int),
		sched:     make(map[PID]*pmu.Schedule),
		schedIn:   make(map[PID]ktime.Time),
		muxTimers: make(map[PID]*HRTimer),
	}
	k.SetPMIDeliver(ps.handlePMI)
	return ps
}

func (ps *PerfSubsystem) ensureHooks() {
	if ps.hooked {
		return
	}
	ps.hooked = true
	ps.k.addSwitchHook(ps.switchHook, true)
}

// The builtin context-switch hook: deschedule the outgoing context, rotate,
// and schedule the incoming one.
func (ps *PerfSubsystem) switchHook(k *Kernel, prev, next *Process) {
	if prev != nil {
		if evs := ps.byPID[prev.pid]; len(evs) > 0 {
			ps.schedOut(prev)
		}
	}
	if next != nil {
		if evs := ps.byPID[next.pid]; len(evs) > 0 {
			ps.schedInCtx(next)
		}
	}
}

// Open attaches an event to target. It must be called from syscall context
// (the perf_event_open path).
func (ps *PerfSubsystem) Open(targetPID PID, spec EventSpec) (*PerfEvent, error) {
	target, ok := ps.k.Process(targetPID)
	if !ok {
		return nil, fmt.Errorf("perf: no such process %d", targetPID)
	}
	if target.Exited() {
		return nil, fmt.Errorf("perf: process %d already exited", targetPID)
	}
	if spec.SamplePeriod > 0 && spec.SampleFreq > 0 {
		return nil, fmt.Errorf("perf: SamplePeriod and SampleFreq are mutually exclusive")
	}
	ps.ensureHooks()
	ps.k.ChargeKernel(ps.k.costs.PerfOpen)
	ps.nextID++
	table := ps.k.core.PMU().Table()
	e := &PerfEvent{
		id:       ps.nextID,
		target:   target,
		spec:     spec,
		fixedIdx: pmu.FixedIndexFor(spec.Event),
		assigned: -1,
		period:   spec.SamplePeriod,
	}
	if d, ok := table.DescFor(spec.Event); ok && d.Unit == pmu.UnitIMC {
		e.uncore = true
	}
	if e.uncore && spec.sampling() {
		return nil, fmt.Errorf("perf: uncore event %v cannot sample (uncore counters raise no PMI)", spec.Event)
	}
	// Validate the extended context against the constraint scheduler: an
	// event the table cannot place on any counter is refused here, not
	// discovered at switch-in.
	evs := append(append([]isa.Event(nil), eventList(ps.byPID[targetPID])...), spec.Event)
	sched, err := table.Schedule(evs)
	if err != nil {
		return nil, fmt.Errorf("perf: event %v not supported by this PMU: %w", spec.Event, err)
	}
	if spec.SampleFreq > 0 {
		// Initial period guess: assume the event fires at ~1GHz-ish rates;
		// the frequency feedback loop converges within a few samples.
		e.period = 1_000_000
		e.lastPMI = ps.k.Now()
	}
	// If the target is running right now, reschedule its context so the new
	// event gets a counter immediately.
	if ps.k.current == target {
		ps.schedOut(target)
		ps.byPID[targetPID] = append(ps.byPID[targetPID], e)
		ps.sched[targetPID] = sched
		ps.schedInCtx(target)
	} else {
		ps.byPID[targetPID] = append(ps.byPID[targetPID], e)
		ps.sched[targetPID] = sched
	}
	return e, nil
}

// eventList projects a context's open events onto their event classes, in
// context order — the request list the scheduler packs.
func eventList(evs []*PerfEvent) []isa.Event {
	out := make([]isa.Event, len(evs))
	for i, e := range evs {
		out[i] = e.spec.Event
	}
	return out
}

// schedule returns the context's cached placement, computing it on demand
// (Open and remove invalidate the cache when the event list changes).
func (ps *PerfSubsystem) schedule(pid PID) *pmu.Schedule {
	if s := ps.sched[pid]; s != nil {
		return s
	}
	s, err := ps.k.core.PMU().Table().Schedule(eventList(ps.byPID[pid]))
	if err != nil {
		// Every event was validated against the scheduler at Open, and
		// removing events never makes a schedulable set unschedulable.
		panic(err)
	}
	ps.sched[pid] = s
	return s
}

// Read returns (count, enabledTime, runningTime) for a counting event. The
// caller scales count by enabled/running to estimate multiplexed events,
// just as user-space perf does. Must run in syscall context.
func (ps *PerfSubsystem) Read(e *PerfEvent) (uint64, ktime.Duration, ktime.Duration) {
	ps.k.ChargeKernel(ps.k.costs.PerfRead)
	if ps.k.current == e.target {
		// Fold the in-flight delta without disturbing scheduling.
		ps.fold(e)
	}
	return e.value, e.enabled, e.running
}

// SetOverflow installs fn to run on each sampling overflow (perf record's
// sample writer).
func (ps *PerfSubsystem) SetOverflow(e *PerfEvent, fn func(k *Kernel, e *PerfEvent, rec SampleRecord)) {
	e.overflowFn = fn
}

// Close detaches the event. Must run in syscall context.
func (ps *PerfSubsystem) Close(e *PerfEvent) {
	if e.closed {
		return
	}
	if ps.k.current == e.target {
		ps.schedOut(e.target)
		e.closed = true
		ps.remove(e)
		ps.schedInCtx(e.target)
		return
	}
	e.closed = true
	ps.remove(e)
}

func (ps *PerfSubsystem) remove(e *PerfEvent) {
	evs := ps.byPID[e.target.pid]
	for i, x := range evs {
		if x == e {
			ps.byPID[e.target.pid] = append(evs[:i], evs[i+1:]...)
			break
		}
	}
	delete(ps.sched, e.target.pid) // the placement is per event list
	if len(ps.byPID[e.target.pid]) == 0 {
		delete(ps.byPID, e.target.pid)
		delete(ps.rot, e.target.pid)
	}
}

// schedInCtx programs the PMU for the target's context from its constraint
// schedule: every switch-in takes the next rotation round, so a
// non-multiplexed context reprograms the same single round each time and an
// oversubscribed one cycles fairly through its rounds.
func (ps *PerfSubsystem) schedInCtx(p *Process) {
	evs := ps.byPID[p.pid]
	if len(evs) == 0 {
		return
	}
	ps.schedIn[p.pid] = ps.k.Now()
	pm := ps.k.core.PMU()
	table := pm.Table()

	sched := ps.schedule(p.pid)
	rot := ps.rot[p.pid]
	ps.rot[p.pid] = rot + 1
	round := sched.Rounds[rot%len(sched.Rounds)]
	var global, fixedCtrl, uncGlobal uint64
	hasUncore := false
	for _, a := range round {
		e := evs[a.Index]
		switch a.Class {
		case pmu.CtrProgrammable:
			enc, _ := table.EncodingFor(e.spec.Event)
			flags := pmu.SelEn | pmu.SelUsr
			if !e.spec.ExcludeKernel {
				flags |= pmu.SelOS
			}
			if e.spec.sampling() {
				flags |= pmu.SelInt
			}
			mustWriteMSR(pm, pmu.MSRPerfEvtSel0+uint32(a.Counter), enc.Sel(flags))
			init := uint64(0)
			if e.spec.sampling() {
				// Restore the saved progress toward the next overflow; arm
				// fresh only on the first schedule-in.
				if e.hwValid {
					init = e.hwSaved
				} else {
					init = pmu.OverflowInit(e.period)
				}
			}
			mustWriteMSR(pm, pmu.MSRPmc0+uint32(a.Counter), init)
			e.assigned = a.Counter
			e.lastRead = init
			global |= 1 << uint(a.Counter)
		case pmu.CtrFixed:
			nib := pmu.FixedUsr
			if !e.spec.ExcludeKernel {
				nib |= pmu.FixedOS
			}
			if e.spec.sampling() {
				nib |= pmu.FixedPMI
				init := pmu.OverflowInit(e.period)
				if e.hwValid {
					init = e.hwSaved
				}
				mustWriteMSR(pm, pmu.MSRFixedCtr0+uint32(a.Counter), init)
			}
			fixedCtrl |= nib << uint(4*a.Counter)
			global |= 1 << uint(32+a.Counter)
			cur, _ := pm.ReadMSR(pmu.MSRFixedCtr0 + uint32(a.Counter))
			e.lastRead = cur
			e.assigned = a.Counter
		case pmu.CtrUncore:
			// Uncore counters observe socket-wide traffic at every privilege;
			// the privilege filter does not apply.
			enc, _ := table.EncodingFor(e.spec.Event)
			mustWriteMSR(pm, pmu.MSRUncEvtSel0+uint32(a.Counter), enc.Sel(uint64(pmu.SelEn)))
			mustWriteMSR(pm, pmu.MSRUncPmc0+uint32(a.Counter), 0)
			e.assigned = a.Counter
			e.lastRead = 0
			uncGlobal |= 1 << uint(a.Counter)
			hasUncore = true
		}
		ps.k.ChargeKernel(ps.k.costs.PerfCtxSwitch)
	}
	mustWriteMSR(pm, pmu.MSRFixedCtrCtrl, fixedCtrl)
	mustWriteMSR(pm, pmu.MSRGlobalCtrl, global)
	if hasUncore {
		mustWriteMSR(pm, pmu.MSRUncGlobalCtrl, uncGlobal)
		ps.k.ChargeKernel(ps.k.costs.MSRAccess)
	}
	ps.k.ChargeKernel(ktime.Duration(3) * ps.k.costs.MSRAccess)

	if sched.Multiplexed() {
		ps.k.tel.MuxRotate(ps.k.Now(), int32(p.pid), rot%len(sched.Rounds), len(sched.Rounds), len(round))
	}

	// A multiplexed context re-rotates on the mux timer while it runs.
	if sched.Multiplexed() && ps.muxTimers[p.pid] == nil {
		pid := p.pid
		ps.muxTimers[pid] = ps.k.StartHRTimer(MuxInterval, MuxInterval, func(k *Kernel, t *HRTimer) bool {
			cur := k.current
			if cur == nil || cur.pid != pid {
				// The switch path should have canceled us; die quietly.
				delete(ps.muxTimers, pid)
				return false
			}
			// Rotate: fold and reprogram. schedOut cancels this timer and
			// schedInCtx arms a fresh one.
			ps.schedOut(cur)
			ps.schedInCtx(cur)
			return false
		})
	}
}

// schedOut folds counts and disables the context's counters.
func (ps *PerfSubsystem) schedOut(p *Process) {
	evs := ps.byPID[p.pid]
	if len(evs) == 0 {
		return
	}
	pm := ps.k.core.PMU()
	since := ps.k.Now().Sub(ps.schedIn[p.pid])
	hasUncore := false
	for _, e := range evs {
		e.enabled += since
		if e.uncore {
			hasUncore = true
		}
		if e.assigned >= 0 {
			e.running += since
			if e.spec.sampling() {
				// Preserve raw progress toward the next overflow.
				if e.fixedIdx >= 0 {
					e.hwSaved, _ = pm.ReadMSR(pmu.MSRFixedCtr0 + uint32(e.fixedIdx))
				} else {
					e.hwSaved, _ = pm.ReadMSR(pmu.MSRPmc0 + uint32(e.assigned))
				}
				e.hwValid = true
			} else {
				ps.fold(e)
			}
			e.assigned = -1
		}
		ps.k.ChargeKernel(ps.k.costs.PerfCtxSwitch)
	}
	mustWriteMSR(pm, pmu.MSRGlobalCtrl, 0)
	mustWriteMSR(pm, pmu.MSRFixedCtrCtrl, 0)
	if hasUncore {
		mustWriteMSR(pm, pmu.MSRUncGlobalCtrl, 0)
	}
	ps.schedIn[p.pid] = ps.k.Now()
	if t := ps.muxTimers[p.pid]; t != nil {
		ps.k.CancelHRTimer(t)
		delete(ps.muxTimers, p.pid)
	}
}

// fold accumulates the in-flight hardware delta into e.value.
func (ps *PerfSubsystem) fold(e *PerfEvent) {
	if e.assigned < 0 {
		return
	}
	pm := ps.k.core.PMU()
	var cur uint64
	switch {
	case e.fixedIdx >= 0:
		cur, _ = pm.ReadMSR(pmu.MSRFixedCtr0 + uint32(e.fixedIdx))
	case e.uncore:
		cur, _ = pm.ReadMSR(pmu.MSRUncPmc0 + uint32(e.assigned))
	default:
		cur, _ = pm.ReadMSR(pmu.MSRPmc0 + uint32(e.assigned))
	}
	delta := (cur - e.lastRead) & pmu.CounterMask()
	e.value += delta
	e.lastRead = cur
}

// handlePMI is the second-stage PMI handler: attribute the overflow to the
// owning event, record a sample, adjust the period (frequency mode) and
// re-arm the counter.
func (ps *PerfSubsystem) handlePMI(counter int, fixed bool) {
	cur := ps.k.current
	if cur == nil {
		return
	}
	evs := ps.byPID[cur.pid]
	for _, e := range evs {
		if !e.spec.sampling() {
			continue
		}
		if fixed != (e.fixedIdx >= 0) || e.assigned != counter {
			continue
		}
		ps.k.ChargeKernel(ps.k.costs.PMICapture)
		now := ps.k.Now()
		rec := SampleRecord{Time: now, Period: e.period}
		e.samples = append(e.samples, rec)
		e.value += e.period
		if e.overflowFn != nil {
			e.overflowFn(ps.k, e, rec)
		}
		// Re-arm, carrying over the events that landed after the overflow
		// point (the wrapped counter holds exactly that excess).
		pm := ps.k.core.PMU()
		var excess uint64
		if e.fixedIdx >= 0 {
			excess, _ = pm.ReadMSR(pmu.MSRFixedCtr0 + uint32(e.fixedIdx))
		} else {
			excess, _ = pm.ReadMSR(pmu.MSRPmc0 + uint32(e.assigned))
		}
		// The simulator applies a whole block's counts atomically, so the
		// wrapped counter can hold more than a full period of excess — on
		// hardware those overflows would have fired mid-block. Record the
		// samples hardware would have taken so the count estimate and the
		// frequency feedback both see the true rate.
		pmis := uint64(1)
		for excess >= e.period {
			excess -= e.period
			rec := SampleRecord{Time: now, Period: e.period}
			e.samples = append(e.samples, rec)
			e.value += e.period
			if e.overflowFn != nil {
				e.overflowFn(ps.k, e, rec)
			}
			pmis++
		}
		if e.spec.SampleFreq > 0 {
			e.retunePeriod(now, pmis)
			// Retuning may shrink the period below the leftover excess;
			// consume it against the new period too, or the re-armed value
			// would start past the overflow point and never wrap.
			for excess >= e.period {
				excess -= e.period
				rec := SampleRecord{Time: now, Period: e.period}
				e.samples = append(e.samples, rec)
				e.value += e.period
				if e.overflowFn != nil {
					e.overflowFn(ps.k, e, rec)
				}
			}
		}
		init := pmu.OverflowInit(e.period) + excess
		if e.fixedIdx >= 0 {
			mustWriteMSR(pm, pmu.MSRFixedCtr0+uint32(e.fixedIdx), init)
		} else {
			mustWriteMSR(pm, pmu.MSRPmc0+uint32(e.assigned), init)
		}
		e.lastRead = init
		return
	}
}

// retunePeriod implements perf's frequency mode: nudge the period so
// overflows land every 1/freq seconds of target runtime. pmis is how many
// overflows the interval since the last retune actually contained (block
// atomicity can fold several into one hardware PMI, see handlePMI).
func (e *PerfEvent) retunePeriod(now ktime.Time, pmis uint64) {
	want := ktime.Duration(uint64(ktime.Second) / e.spec.SampleFreq)
	got := now.Sub(e.lastPMI) / ktime.Duration(pmis)
	e.lastPMI = now
	if got == 0 {
		got = 1
	}
	next := uint64(float64(e.period) * float64(want) / float64(got))
	// Blend for stability and clamp to sane bounds.
	next = (e.period + next) / 2
	if next < 1000 {
		next = 1000
	}
	if next > 1<<40 {
		next = 1 << 40
	}
	e.period = next
}

func mustWriteMSR(pm *pmu.PMU, addr uint32, val uint64) {
	if err := pm.WriteMSR(addr, val); err != nil {
		panic(err)
	}
}
