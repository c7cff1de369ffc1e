package kernel

import (
	"kleb/internal/fault"
	"kleb/internal/ktime"
)

// HRTimerFn is a high-resolution timer callback. It runs in interrupt
// context at (nominal expiry + interrupt latency jitter). Returning true
// re-arms the timer one period later (HRTIMER_RESTART); returning false
// lets it die (HRTIMER_NORESTART).
type HRTimerFn func(k *Kernel, t *HRTimer) bool

// HRTimer is an in-kernel high-resolution timer, the facility that lets
// K-LEB sample at 100µs when user-space timers bottom out at 10ms.
type HRTimer struct {
	id      uint64
	fn      HRTimerFn
	period  ktime.Duration
	nominal ktime.Time // drift-free expiry grid position
	active  bool
	node    eventNode // unified event queue handle; node.at is the jittered expiry
}

// Active reports whether the timer is armed.
func (t *HRTimer) Active() bool { return t.active }

// StartHRTimer arms a timer firing first at now+delay, then every period if
// period > 0. The arming itself costs TimerProgram. The effective expiry
// includes interrupt-latency jitter, which is resampled on every re-arm —
// this is the jitter the paper warns about for sub-100µs sampling.
func (k *Kernel) StartHRTimer(delay, period ktime.Duration, fn HRTimerFn) *HRTimer {
	t := &HRTimer{}
	k.ArmHRTimer(t, delay, period, fn)
	return t
}

// ArmHRTimer arms a caller-owned timer value, reusing its storage across
// re-arms so a hot caller (the K-LEB switch probe arms on every tracked
// switch-in) allocates nothing — StartHRTimer is the same operation with
// a fresh allocation. Every arm draws a fresh timer id, so the two paths
// produce byte-identical artifacts. An already-armed timer is disarmed
// first.
//
//klebvet:hotpath
func (k *Kernel) ArmHRTimer(t *HRTimer, delay, period ktime.Duration, fn HRTimerFn) {
	// Only an active timer can sit in the event queue; the zero value's
	// node.index is 0, so queued() alone would misread a fresh timer.
	if t.active && t.node.queued() {
		k.cancelEvent(&t.node)
	}
	k.ChargeKernel(k.costs.TimerProgram)
	k.timerID++
	t.id = k.timerID
	t.fn = fn
	t.period = period
	t.nominal = k.clock.Now().Add(delay)
	t.active = true
	t.node = eventNode{kind: evTimer, id: t.id, index: -1, timer: t}
	t.node.at = t.nominal.Add(k.timerJitter())
	k.armEvent(&t.node)
	k.tel.TimerArm(k.clock.Now(), t.id, t.nominal)
}

// CancelHRTimer disarms a timer. Safe to call on an already-expired one.
func (k *Kernel) CancelHRTimer(t *HRTimer) {
	if t == nil || !t.active {
		return
	}
	t.active = false
	k.cancelEvent(&t.node)
	k.ChargeKernel(k.costs.TimerProgram)
	k.tel.TimerCancel(k.clock.Now(), t.id)
}

// timerJitter samples one interrupt-latency delay. An injected jitter
// storm multiplies the base latency 10–100× — the pathological interrupt
// weather the paper warns about at sub-100µs periods.
func (k *Kernel) timerJitter() ktime.Duration {
	j := k.rng.Jitter(k.costs.InterruptLatency, k.costs.TimerJitterRel)
	if extra, storm := k.faults.TimerExtraJitter(j); storm {
		k.tel.FaultInjected(k.clock.Now(), fault.KindJitterStorm)
		j += extra
	}
	return j
}

// fireTimer runs one expired timer: a hardware interrupt charges its
// entry/exit costs, the handler runs in kernel context, and a periodic
// timer is re-armed on its nominal grid so sampling does not drift. The
// caller has already popped the timer's node off the event queue.
//
//klebvet:hotpath
func (k *Kernel) fireTimer(t *HRTimer) {
	if !t.active {
		return
	}
	k.tel.TimerFire(k.clock.Now(), t.id, t.nominal, t.node.at)
	k.ChargeKernel(k.costs.InterruptEntry)
	k.core.InterruptPollute(k.costs.IntPolluteL1)
	restart := false
	if t.fn != nil {
		// Each handler is audited on its own: K-LEB's onTimer carries its
		// own //klebvet:hotpath proof, and the mux-rotation closure runs
		// only for multiplexed contexts, which K-LEB rejects at configure.
		restart = t.fn(k, t) //klebvet:allow hotalloc -- handlers individually verified; see comment above
	}
	// An injected spurious PMI rides the interrupt path: the queued event is
	// delivered (entry/exit costs, telemetry) by the next drainPMIs pass.
	if k.faults.SpuriousPMI() {
		k.tel.FaultInjected(k.clock.Now(), fault.KindSpuriousPMI)
		k.pmis = append(k.pmis, pmiEvent{counter: 0, fixed: false, raised: k.clock.Now()})
	}
	k.ChargeKernel(k.costs.InterruptExit)
	if restart && t.period > 0 {
		t.nominal = t.nominal.Add(t.period)
		// A handler that overran its own period fires next period from
		// now instead of trying to catch up a backlog.
		if !t.nominal.After(k.clock.Now()) {
			t.nominal = k.clock.Now().Add(t.period)
		}
		t.node.at = t.nominal.Add(k.timerJitter())
		k.ChargeKernel(k.costs.TimerProgram)
		k.armEvent(&t.node)
		k.tel.TimerArm(k.clock.Now(), t.id, t.nominal)
	} else {
		t.active = false
	}
}
