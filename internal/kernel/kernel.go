// Package kernel implements the simulated operating system kernel the
// reproduction runs on: processes and a round-robin scheduler with
// context-switch costs and cache pollution, jiffy-granularity user timers,
// nanosecond-granularity in-kernel high-resolution timers, kprobes on the
// context-switch/fork/exit paths, a loadable-module and ioctl facility, a
// perf_events-like counter subsystem, and a syscall layer with an explicit
// cost model.
//
// The kernel is a discrete-event engine over the shared virtual clock: the
// current process executes priced instruction blocks until the next event
// (timer expiry, wakeup, end of timeslice), interrupts charge their costs
// and run handlers, and everything that executes feeds the PMU — which is
// how monitoring overhead becomes measurable rather than asserted.
//
// The engine is event-driven end to end: timer expiries and sleeper
// wakeups live in one unified event heap (see event.go) keyed by
// (time, kind, id), the next-event time is cached and refreshed only when
// the heap mutates, and the run queue is a ring-buffer deque — so the
// scheduler loop does no per-iteration scans and, in steady state, no
// allocations.
package kernel

import (
	"errors"
	"fmt"
	"io"

	"kleb/internal/cpu"
	"kleb/internal/fault"
	"kleb/internal/isa"
	"kleb/internal/ktime"
	"kleb/internal/telemetry"
)

// Options selects kernel build-time features.
type Options struct {
	// LiMiTPatch marks the kernel as carrying the LiMiT patch: user-space
	// RDPMC is allowed and counters are virtualized per process on the
	// context-switch path. The stock kernels in the paper's Table III do
	// not have it, which is why LiMiT has no MKL entry there.
	LiMiTPatch bool
}

type pmiEvent struct {
	counter int
	fixed   bool
	raised  ktime.Time
}

// Kernel is one simulated OS instance bound to one core.
type Kernel struct {
	clock *ktime.Clock
	rng   *ktime.Rand
	core  *cpu.Core
	freq  ktime.Freq // core.Config().Freq, read once: Config copies the whole struct
	costs CostModel
	opts  Options

	procs   map[PID]*Process
	byPID   []*Process // every process ever spawned, pid-ascending
	nextPID PID
	live    int

	runq     runQueue
	current  *Process
	sliceEnd ktime.Time

	// events is the unified pending-event queue (timer expiries + sleeper
	// wakeups); nextAt/nextOk cache its top so the scheduler loop reads the
	// next-event time without touching the heap. The cache is refreshed
	// only when the heap mutates (arm/cancel/pop).
	events  eventHeap
	nextAt  ktime.Time
	nextOk  bool
	timerID uint64

	// woken and deferred are fireDue's reusable scratch buffers; steady
	// state wakeup batches allocate nothing.
	woken    []*Process
	deferred []*eventNode

	switchProbes []switchProbe
	forkProbes   []forkProbe
	exitProbes   []exitProbe
	probeID      ProbeID

	modules map[string]Module
	devices map[string]IoctlFn

	perf *PerfSubsystem
	fs   *FS

	pmis       []pmiEvent
	pmiDeliver func(counter int, fixed bool)

	// runScale is this boot's correlated cost multiplier (see
	// CostModel.RunNoiseRel).
	runScale float64

	// straceSinks receive syscall trace lines (see TraceSyscalls).
	straceSinks []io.Writer

	// tel is the observability sink (nil = disabled; every emit below is a
	// nil-safe call that compiles to a branch).
	tel *telemetry.Sink

	// faults is the run's fault-injection plan (nil = none; every decision
	// below is a nil-safe call that compiles to a branch, mirroring tel).
	faults *fault.Plan

	idleTime ktime.Duration
}

// ErrDeadlock is returned by Run when live processes remain but nothing can
// ever run again (no runnable process, no sleeper, no timer).
var ErrDeadlock = errors.New("kernel: deadlock: live processes but no pending events")

// New boots a kernel on core with the given cost model. rng seeds all
// scheduling/timing noise.
func New(core *cpu.Core, costs CostModel, rng *ktime.Rand, opts Options) *Kernel {
	k := &Kernel{
		clock:   ktime.NewClock(),
		rng:     rng,
		core:    core,
		freq:    core.Config().Freq,
		costs:   costs,
		opts:    opts,
		procs:   make(map[PID]*Process),
		modules: make(map[string]Module),
		devices: make(map[string]IoctlFn),
	}
	k.perf = newPerfSubsystem(k)
	k.fs = newFS(k)
	core.PMU().SetPMIHandler(func(counter int, fixed bool) {
		k.pmis = append(k.pmis, pmiEvent{counter, fixed, k.clock.Now()})
	})
	k.runScale = 1
	if costs.RunNoiseRel > 0 {
		k.runScale = 1 + costs.RunNoiseRel*k.rng.Norm()
		if k.runScale < 0.7 {
			k.runScale = 0.7
		}
		if k.runScale > 1.3 {
			k.runScale = 1.3
		}
	}
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() ktime.Time { return k.clock.Now() }

// Core returns the CPU core this kernel runs on.
func (k *Kernel) Core() *cpu.Core { return k.core }

// Costs returns the kernel's cost model.
func (k *Kernel) Costs() CostModel { return k.costs }

// Rand returns the kernel's noise source.
func (k *Kernel) Rand() *ktime.Rand { return k.rng }

// LiMiTPatched reports whether the LiMiT kernel patch is present.
func (k *Kernel) LiMiTPatched() bool { return k.opts.LiMiTPatch }

// Perf returns the perf_events-like subsystem.
func (k *Kernel) Perf() *PerfSubsystem { return k.perf }

// IdleTime returns accumulated idle time.
func (k *Kernel) IdleTime() ktime.Duration { return k.idleTime }

// SetPMIDeliver installs the PMI second-stage handler (the perf subsystem
// wires itself here; K-LEB does not use PMIs).
func (k *Kernel) SetPMIDeliver(fn func(counter int, fixed bool)) { k.pmiDeliver = fn }

// SetTelemetry attaches an observability sink. All kernel-layer events
// (context switches, timers, kprobes, syscalls, PMIs, ioctls) are stamped
// with virtual time; the PMU's overflow observer is wired here so the pmu
// package stays free of the telemetry dependency. nil detaches.
func (k *Kernel) SetTelemetry(s *telemetry.Sink) {
	k.tel = s
	if s == nil {
		k.core.PMU().SetOverflowObserver(nil)
		return
	}
	k.core.PMU().SetOverflowObserver(func(counter int, fixed bool) {
		s.PMUOverflow(k.clock.Now(), counter, fixed)
	})
}

// Telemetry returns the attached sink (nil when disabled). Modules emit
// their own events through it.
func (k *Kernel) Telemetry() *telemetry.Sink { return k.tel }

// SetFaults installs the run's fault-injection plan (nil disables
// injection). Like SetTelemetry it must be called before the run starts so
// every boundary of the run sees the same plan.
func (k *Kernel) SetFaults(p *fault.Plan) { k.faults = p }

// Faults returns the kernel's fault plan; nil (the common case) means no
// injection, and every decision method on a nil plan is a cheap no-op.
func (k *Kernel) Faults() *fault.Plan { return k.faults }

// Spawn creates a top-level process. It is ready to run immediately.
func (k *Kernel) Spawn(name string, prog Program) *Process {
	return k.spawn(name, prog, 0)
}

// SpawnDaemon creates a background process that does not keep Run alive:
// the simulation ends when every non-daemon process has exited.
func (k *Kernel) SpawnDaemon(name string, prog Program) *Process {
	p := k.spawn(name, prog, 0)
	p.daemon = true
	k.live--
	return p
}

// SpawnStopped creates a process that will not run until Resume is called.
// The monitoring harness uses it to arm a tool before its target executes
// its first instruction (the `tool ./program` launch pattern).
func (k *Kernel) SpawnStopped(name string, prog Program) *Process {
	p := k.spawn(name, prog, 0)
	p.state = StateStopped
	k.runq.PopBack()
	return p
}

// Resume makes a stopped process runnable.
func (k *Kernel) Resume(p *Process) {
	if p.state != StateStopped {
		return
	}
	p.state = StateReady
	p.startTime = k.clock.Now()
	k.runq.PushBack(p)
}

func (k *Kernel) spawn(name string, prog Program, ppid PID) *Process {
	k.nextPID++
	//klebvet:allow hotalloc -- clone allocates a task struct by definition; spawns are workload events, not sampling-period work
	p := &Process{
		pid:       k.nextPID,
		ppid:      ppid,
		name:      name,
		state:     StateReady,
		prog:      prog,
		startTime: k.clock.Now(),
	}
	p.wake = eventNode{kind: evWake, id: uint64(p.pid), index: -1, proc: p}
	k.procs[p.pid] = p
	k.byPID = append(k.byPID, p)
	k.live++
	k.runq.PushBack(p)
	k.tel.ProcessName(int32(p.pid), name)
	return p
}

// Process looks up a process by PID.
func (k *Kernel) Process(pid PID) (*Process, bool) {
	p, ok := k.procs[pid]
	return p, ok
}

// Processes returns all processes ever spawned, in PID order.
func (k *Kernel) Processes() []*Process {
	out := make([]*Process, len(k.byPID))
	copy(out, k.byPID)
	return out
}

// ChargeKernel charges d (with cost noise) of kernel-privilege work at the
// current instant: the clock advances and synthetic kernel instruction
// activity feeds the PMU, attributed to the current process's kernel time.
func (k *Kernel) ChargeKernel(d ktime.Duration) {
	if d == 0 {
		return
	}
	if k.runScale != 1 {
		d = ktime.Duration(float64(d) * k.runScale)
	}
	if k.costs.NoiseRel > 0 {
		d = k.rng.Jitter(d, k.costs.NoiseRel)
	}
	k.clock.Advance(d)
	if k.current != nil {
		k.current.kernTime += d
	}
	k.core.PMU().AddCounts(kernelCounts(k.freq, d), isa.Kernel)
}

// kernelCounts synthesizes the event activity of d worth of kernel-mode
// housekeeping: IPC ~0.5, a sprinkle of branches. Cache events are not
// synthesized — pollution is modelled directly on the hierarchy.
func kernelCounts(f ktime.Freq, d ktime.Duration) isa.Counts {
	var c isa.Counts
	cyc := f.Cycles(d)
	c[isa.EvCycles] = cyc
	c[isa.EvRefCycles] = cyc
	c[isa.EvInstructions] = cyc / 2
	c[isa.EvBranches] = cyc / 16
	c[isa.EvLoads] = cyc / 8
	c[isa.EvStores] = cyc / 16
	return c
}

// Run drives the simulation until every process has exited, limit virtual
// time has elapsed (limit 0 = no limit), or a deadlock is detected.
func (k *Kernel) Run(limit ktime.Duration) error {
	var deadline ktime.Time
	if limit > 0 {
		deadline = k.clock.Now().Add(limit)
	}
	return k.runUntil(deadline)
}

// RunUntil drives the simulation up to the absolute instant t (or until all
// processes exit). It is the stepping primitive for co-simulating several
// cores against shared hardware: an outer loop advances each core's kernel
// in small lockstep windows so their shared-cache accesses interleave.
func (k *Kernel) RunUntil(t ktime.Time) error {
	if t <= k.clock.Now() {
		return nil
	}
	return k.runUntil(t)
}

// Idle reports whether every non-daemon process has exited.
func (k *Kernel) Idle() bool { return k.live == 0 }

func (k *Kernel) runUntil(deadline ktime.Time) error {
	for {
		k.drainPMIs()
		if k.live == 0 {
			return nil
		}
		if deadline > 0 && !k.clock.Now().Before(deadline) {
			return nil
		}
		now := k.clock.Now()
		next, hasNext := k.nextAt, k.nextOk

		// Fire anything already due.
		if hasNext && next <= now {
			k.fireDue()
			continue
		}

		if k.current == nil {
			if k.runq.Len() > 0 {
				k.schedule()
				continue
			}
			if !hasNext {
				return fmt.Errorf("%w (%d live)", ErrDeadlock, k.live)
			}
			if deadline > 0 && next > deadline {
				k.idleTime += deadline.Sub(now)
				k.clock.AdvanceTo(deadline)
				return nil
			}
			k.idleTime += next.Sub(now)
			k.clock.AdvanceTo(next)
			k.fireDue()
			continue
		}

		// A process is running: find its budget until the next event.
		horizon := k.sliceEnd
		if hasNext && next < horizon {
			horizon = next
		}
		if deadline > 0 && deadline < horizon {
			horizon = deadline
		}
		if horizon <= now {
			// Timeslice expired.
			k.tickSlice()
			continue
		}
		k.runCurrent(horizon.Sub(now))
	}
}

// fireDue processes all events due at the current instant by popping them
// off the unified event queue: timer handlers run first, then sleeper
// wakeups batch into one tick interrupt (which preempts the current
// process). Ordering matches the historical two-phase scan exactly:
//
//   - every timer due at entry time fires in (expiry, id) order, including
//     re-arms that land back inside the window;
//   - sleepers due once the timer handlers have run — their handling may
//     advance the clock — wake in pid order;
//   - timers that became due only because handlers advanced the clock do
//     NOT fire in this round; they are set aside and re-queued for the next
//     loop iteration.
//
//klebvet:hotpath
func (k *Kernel) fireDue() {
	now := k.clock.Now()
	woken := k.woken[:0]
	for k.nextOk && k.nextAt <= now {
		n := k.popEvent()
		if n.kind == evWake {
			woken = append(woken, n.proc)
			continue
		}
		k.fireTimer(n.timer)
	}
	// Timer handlers advanced the clock: sleepers now due join this wakeup
	// batch; newly due timers are deferred to the next round.
	now = k.clock.Now()
	deferred := k.deferred[:0]
	for k.nextOk && k.nextAt <= now {
		n := k.popEvent()
		if n.kind == evWake {
			woken = append(woken, n.proc)
			continue
		}
		deferred = append(deferred, n)
	}
	for _, n := range deferred {
		k.armEvent(n)
	}
	k.deferred = deferred[:0]
	if len(woken) == 0 {
		k.woken = woken
		return
	}
	// The queue yields wakeups in (time, pid) order; the wakeup batch
	// contract is pid order regardless of nominal wake time. Insertion
	// sort: batches are tiny and the scratch must not allocate.
	for i := 1; i < len(woken); i++ {
		p := woken[i]
		j := i - 1
		for j >= 0 && woken[j].pid > p.pid {
			woken[j+1] = woken[j]
			j--
		}
		woken[j+1] = p
	}
	// One tick interrupt delivers all due wakeups. Front-loading in pid
	// order leaves the highest woken pid at the head of the run queue.
	k.ChargeKernel(k.costs.InterruptEntry)
	for _, p := range woken {
		p.state = StateReady
		k.runq.PushFront(p)
		k.tel.SyscallExit(k.clock.Now(), "nanosleep", int32(p.pid))
	}
	k.ChargeKernel(k.costs.InterruptExit)
	k.woken = woken[:0]
	// Wakeup preemption: a freshly woken (sleep-heavy) task takes the CPU,
	// as CFS would grant it. This gives interval-based tools their cadence
	// and charges the monitored process the context switches they cause.
	if k.current != nil {
		k.tickSlice()
	}
}

// schedule switches to the first runnable process.
func (k *Kernel) schedule() {
	k.switchTo(k.runq.PopFront())
}

// tickSlice handles timeslice expiry: round-robin to the next waiter, or
// extend the slice if the current process is alone.
func (k *Kernel) tickSlice() {
	if k.runq.Len() == 0 {
		k.sliceEnd = k.clock.Now().Add(k.costs.Timeslice)
		return
	}
	prev := k.current
	prev.state = StateReady
	k.runq.PushBack(prev)
	// k.current stays set so switchTo sees the true prev for its probes.
	k.schedule()
}

// switchTo performs a context switch to next, charging its costs, firing
// switch probes, and polluting the caches.
func (k *Kernel) switchTo(next *Process) {
	prev := k.current
	if prev == next {
		next.state = StateRunning
		k.sliceEnd = k.clock.Now().Add(k.costs.Timeslice)
		return
	}
	k.current = nil // costs below are switch overhead, not owned by either side
	k.ChargeKernel(k.costs.ContextSwitch)
	k.tel.CtxSwitch(k.clock.Now(), int32(pidOf(prev)), int32(next.pid))
	k.fireSwitchProbes(prev, next)
	k.core.OnContextSwitch(k.costs.PolluteL1, k.costs.PolluteL2, k.costs.PolluteLLC)
	k.current = next
	next.state = StateRunning
	next.switches++
	if !next.ranOnce {
		next.ranOnce = true
		next.firstRun = k.clock.Now()
	}
	k.sliceEnd = k.clock.Now().Add(k.costs.Timeslice)
}

// pidOf returns p's pid, or 0 for nil (the idle task).
func pidOf(p *Process) PID {
	if p == nil {
		return 0
	}
	return p.pid
}

// runCurrent advances the current process by at most budget.
//
//klebvet:hotpath
func (k *Kernel) runCurrent(budget ktime.Duration) {
	p := k.current
	if p.pendingLen() == 0 {
		//klebvet:allow hotalloc -- program step generation is the workload's own code; its cost is charged to the workload, not the sampler
		op := p.prog.Next(k, p)
		if op == nil {
			// A drained program exits directly; assigning OpExit{} to op
			// would box it into the interface on every natural exit.
			k.doExit(p, 0)
			return
		}
		switch op := op.(type) {
		case OpExec:
			if op.Block.Empty() {
				return
			}
			p.pushPending(pendingWork{work: k.executeRun(p, op.Block, budget)})
		case OpSleep:
			k.doSleep(p, op)
			return
		case OpSyscall:
			k.startSyscall(p, op.Name, op.Fn)
		case OpSpawn:
			//klebvet:allow hotalloc -- the clone closure captures the spawn op; spawning is a workload event, not sampling-period work
			k.startSyscall(p, "clone", func(k *Kernel, p *Process) any {
				child := k.spawn(op.Name, op.Prog, p.pid)
				k.fireForkProbes(p, child)
				return child.pid //klebvet:allow hotalloc -- clone's return value boxes the child PID once per spawn, a workload event
			})
		case OpWait:
			k.doWait(p, op.PID)
			return
		case OpExit:
			k.doExit(p, op.Code)
			return
		default:
			//klebvet:allow hotalloc -- unreachable crash path for a malformed program; allocation is irrelevant mid-panic
			panic(fmt.Sprintf("kernel: unknown op %T", op))
		}
		if p.pendingLen() == 0 {
			return
		}
	}
	w := p.frontPending()
	head, tail := w.work.Split(budget)
	k.applyWork(p, head)
	if tail.Empty() {
		done := w.onDone
		p.popPending()
		if done != nil {
			done(k, p) //klebvet:allow hotalloc -- completion callbacks belong to the op that queued them (syscall exit bookkeeping), audited below
		}
	} else {
		w.work = tail
	}
}

// applyWork advances the clock over priced work and feeds the PMU.
func (k *Kernel) applyWork(p *Process, w cpu.Costed) {
	if w.Time == 0 {
		return
	}
	k.clock.Advance(w.Time)
	if w.Priv == isa.User {
		p.userTime += w.Time
	} else {
		p.kernTime += w.Time
	}
	k.core.PMU().AddCounts(w.Counts, w.Priv)
}

// startSyscall queues the entry transition; the handler body runs when the
// entry cost has elapsed, then the exit transition is queued.
func (k *Kernel) startSyscall(p *Process, name string, fn SyscallFn) {
	if len(k.straceSinks) > 0 {
		k.traceSyscall(p, name)
	}
	k.tel.SyscallEnter(k.clock.Now(), name, int32(p.pid))
	entry := cpu.Costed{
		Counts: kernelCounts(k.freq, k.costs.SyscallEntry),
		Time:   k.rng.Jitter(k.costs.SyscallEntry, k.costs.NoiseRel),
		Priv:   isa.Kernel,
	}
	//klebvet:allow hotalloc -- syscall entry/exit continuations allocate per syscall the workload issues, never per HRTimer sample
	p.pushPending(pendingWork{
		work: entry,
		onDone: func(k *Kernel, p *Process) {
			p.SyscallResult = fn(k, p)
			exit := cpu.Costed{
				Counts: kernelCounts(k.freq, k.costs.SyscallExit),
				Time:   k.rng.Jitter(k.costs.SyscallExit, k.costs.NoiseRel),
				Priv:   isa.Kernel,
			}
			ew := pendingWork{work: exit}
			if k.tel != nil {
				ew.onDone = func(k *Kernel, p *Process) {
					k.tel.SyscallExit(k.clock.Now(), name, int32(p.pid))
				}
			}
			p.pushPending(ew)
		},
	})
}

// doSleep blocks p. Jiffy sleeps round the wakeup up to the next jiffy
// boundary — the 10 ms user-timer floor; HR sleeps wake precisely (plus
// interrupt latency jitter). The wakeup is queued as a unified event.
func (k *Kernel) doSleep(p *Process, op OpSleep) {
	if len(k.straceSinks) > 0 {
		k.traceSyscall(p, "nanosleep")
	}
	k.tel.SyscallEnter(k.clock.Now(), "nanosleep", int32(p.pid))
	k.ChargeKernel(k.costs.SyscallEntry)
	target := k.clock.Now().Add(op.D)
	if op.Until != 0 {
		target = op.Until
	}
	if op.HR {
		p.wakeAt = target.Add(k.timerJitter())
	} else {
		j := uint64(k.costs.Jiffy)
		p.wakeAt = ktime.Time((uint64(target) + j - 1) / j * j)
	}
	k.ChargeKernel(k.costs.SyscallExit)
	if p.wakeAt <= k.clock.Now() {
		p.wakeAt = k.clock.Now() + 1
	}
	p.state = StateSleeping
	p.wake.at = p.wakeAt
	k.armEvent(&p.wake)
	k.current = nil
}

// doWait blocks p until the waited-on process exits (waitpid). If it is
// already gone, the caller continues immediately after the syscall cost.
// The wakeup comes from the exit path, not from time, so no event is
// queued.
func (k *Kernel) doWait(p *Process, target PID) {
	if len(k.straceSinks) > 0 {
		k.traceSyscall(p, "waitpid")
	}
	k.tel.SyscallEnter(k.clock.Now(), "waitpid", int32(p.pid))
	k.ChargeKernel(k.costs.SyscallEntry)
	t, ok := k.procs[target]
	if !ok || t.Exited() {
		k.ChargeKernel(k.costs.SyscallExit)
		k.tel.SyscallExit(k.clock.Now(), "waitpid", int32(p.pid))
		return
	}
	p.waitingOn = target
	p.state = StateSleeping
	p.wakeAt = 0 // woken explicitly by the exit path, not by time
	k.current = nil
}

// doExit terminates p: gating hooks see a switch to idle, exit probes fire,
// and the scheduler moves on.
func (k *Kernel) doExit(p *Process, code int) {
	k.ChargeKernel(k.costs.SyscallEntry)
	k.tel.CtxSwitch(k.clock.Now(), int32(p.pid), 0)
	k.fireSwitchProbes(p, nil)
	k.current = nil
	p.state = StateExited
	p.exitCode = code
	p.exitTime = k.clock.Now()
	p.clearPending()
	if !p.daemon {
		k.live--
	}
	k.fireExitProbes(p)
	// Wake any waitpid callers. byPID is pid-ascending, so a single walk
	// wakes them in pid order — the runq and the telemetry stream stay
	// deterministic without collecting or sorting.
	for _, waiter := range k.byPID {
		if waiter.state == StateSleeping && waiter.waitingOn == p.pid {
			waiter.waitingOn = 0
			waiter.state = StateReady
			k.runq.PushBack(waiter)
			k.tel.SyscallExit(k.clock.Now(), "waitpid", int32(waiter.pid))
		}
	}
}

// drainPMIs delivers queued performance-monitoring interrupts. Handler work
// can in principle re-overflow a counter; the loop is bounded to keep a
// misconfigured sampling period from wedging the simulation.
func (k *Kernel) drainPMIs() {
	for round := 0; len(k.pmis) > 0; round++ {
		if round > 64 {
			k.pmis = nil
			return
		}
		q := k.pmis
		k.pmis = nil
		for _, e := range q {
			k.ChargeKernel(k.costs.InterruptEntry)
			now := k.clock.Now()
			k.tel.PMI(now, e.counter, e.fixed, now.Sub(e.raised))
			if k.pmiDeliver != nil {
				k.pmiDeliver(e.counter, e.fixed)
			}
			k.ChargeKernel(k.costs.InterruptExit)
		}
	}
}
