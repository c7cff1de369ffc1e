package kernel

import (
	"fmt"

	"kleb/internal/cpu"
	"kleb/internal/isa"
	"kleb/internal/ktime"
)

// PID identifies a process.
type PID int

// ProcState is a process's scheduling state.
type ProcState uint8

// Process states.
const (
	StateReady ProcState = iota
	StateRunning
	StateSleeping
	StateStopped
	StateExited
)

func (s ProcState) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateSleeping:
		return "sleeping"
	case StateStopped:
		return "stopped"
	case StateExited:
		return "exited"
	}
	return fmt.Sprintf("ProcState(%d)", uint8(s))
}

// Program is the behaviour of a simulated process. The kernel calls Next
// whenever the process has finished its previous operation and is about to
// continue executing; Next returns the next operation to perform. Programs
// are state machines driven by the scheduler, which is exactly how the
// monitored workloads, the K-LEB controller and the baseline tools'
// user-space halves are all expressed.
type Program interface {
	Next(k *Kernel, p *Process) Op
}

// ProgramFunc adapts a plain function to the Program interface.
type ProgramFunc func(k *Kernel, p *Process) Op

// Next implements Program.
func (f ProgramFunc) Next(k *Kernel, p *Process) Op { return f(k, p) }

// Op is one operation a program performs. The concrete types below are the
// full set.
type Op interface{ isOp() }

// OpExec executes an instruction block (user or kernel privilege per the
// block). It carries the block by pointer, so converting an OpExec to an Op
// allocates nothing: a program may point into storage it owns (a compiled
// stream's runs) or take the address of a block it builds. The kernel reads
// the block once, when it executes the op, and never writes it.
type OpExec struct{ Block *isa.Block }

// OpSleep blocks the process for roughly D — or, when Until is non-zero,
// until the absolute deadline Until (setitimer-style arming, immune to the
// drift a relative sleep accumulates from its own syscall costs). With HR
// false the wakeup is rounded up to the next jiffy boundary — the 10 ms
// floor that constrains user-space timer loops like perf stat's interval
// mode. With HR true the sleep is backed by an in-kernel high-resolution
// timer.
type OpSleep struct {
	D     ktime.Duration
	Until ktime.Time
	HR    bool
}

// OpSyscall enters the kernel: entry/exit transition costs are charged and
// Fn runs in kernel context. Fn may charge additional kernel time through
// Kernel.ChargeKernel (e.g. per-sample copy costs) and its return value is
// stored in Process.SyscallResult for the program's next step.
type OpSyscall struct {
	Name string
	Fn   SyscallFn
}

// SyscallFn is a syscall handler body.
type SyscallFn func(k *Kernel, p *Process) any

// OpSpawn forks a child process running Prog. Fork kprobes fire, which is
// how K-LEB extends monitoring to a process's lineage.
type OpSpawn struct {
	Name string
	Prog Program
}

// OpWait blocks the caller until the process with the given PID exits
// (waitpid semantics). Waiting on an already-exited or unknown PID returns
// immediately.
type OpWait struct{ PID PID }

// OpExit terminates the process.
type OpExit struct{ Code int }

func (OpExec) isOp()    {}
func (OpSleep) isOp()   {}
func (OpSyscall) isOp() {}
func (OpSpawn) isOp()   {}
func (OpWait) isOp()    {}
func (OpExit) isOp()    {}

// pendingWork is priced work queued on a process, with an optional
// completion callback (used to run syscall bodies after their entry cost).
type pendingWork struct {
	work   cpu.Costed
	onDone func(k *Kernel, p *Process)
}

// Process is a simulated process/task.
type Process struct {
	pid  PID
	ppid PID
	name string

	state  ProcState
	prog   Program
	daemon bool

	// pending is the process's queued work, consumed from pendingHead.
	// Pop/push rewind to the start of the backing array whenever the queue
	// drains, so the steady-state execute loop reuses one entry forever
	// instead of allocating per block.
	pending     []pendingWork
	pendingHead int

	wakeAt ktime.Time
	// wake is the process's unified-event-queue node, armed while the
	// process is in a timed sleep (kind evWake, id = pid).
	wake eventNode
	// waitingOn is the PID this process is blocked on (OpWait), 0 if none.
	waitingOn PID

	// SyscallResult holds the return value of the most recent OpSyscall's
	// handler; the program inspects it on its next step.
	SyscallResult any

	// Accounting.
	firstRun ktime.Time
	ranOnce  bool
	exitTime ktime.Time
	userTime ktime.Duration
	kernTime ktime.Duration
	switches uint64
	exitCode int
}

// pendingLen returns the number of queued work items.
func (p *Process) pendingLen() int { return len(p.pending) - p.pendingHead }

// pushPending queues w. A drained queue rewinds to the start of its
// backing array first, so pushes stop allocating once the array has grown
// to the process's steady-state depth.
func (p *Process) pushPending(w pendingWork) {
	if p.pendingHead > 0 && p.pendingHead == len(p.pending) {
		p.pending = p.pending[:0]
		p.pendingHead = 0
	}
	p.pending = append(p.pending, w)
}

// frontPending returns the work item at the queue's head. The queue must
// be non-empty.
func (p *Process) frontPending() *pendingWork { return &p.pending[p.pendingHead] }

// popPending drops the head item, releasing its completion closure, and
// rewinds the queue when it drains.
func (p *Process) popPending() {
	p.pending[p.pendingHead] = pendingWork{}
	p.pendingHead++
	if p.pendingHead == len(p.pending) {
		p.pending = p.pending[:0]
		p.pendingHead = 0
	}
}

// clearPending drops all queued work (process exit).
func (p *Process) clearPending() {
	p.pending = nil
	p.pendingHead = 0
}

// PID returns the process identifier.
func (p *Process) PID() PID { return p.pid }

// PPID returns the parent's identifier (0 for top-level processes).
func (p *Process) PPID() PID { return p.ppid }

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// State returns the scheduling state.
func (p *Process) State() ProcState { return p.state }

// Exited reports whether the process has terminated.
func (p *Process) Exited() bool { return p.state == StateExited }

// ExitCode returns the exit code (valid once Exited).
func (p *Process) ExitCode() int { return p.exitCode }

// FirstRun returns when the process was first scheduled onto the CPU.
func (p *Process) FirstRun() ktime.Time { return p.firstRun }

// ExitTime returns when the process exited (zero if still alive).
func (p *Process) ExitTime() ktime.Time { return p.exitTime }

// Runtime returns the process's execution wall time: exit minus first
// schedule-in. Queueing delay before the first instruction (e.g. a
// monitoring tool launching ahead of its target) is not the program's
// execution time and is excluded, matching how the paper's overhead
// studies time the monitored program itself.
func (p *Process) Runtime() ktime.Duration {
	if !p.ranOnce {
		return 0
	}
	return p.exitTime.Sub(p.firstRun)
}

// UserTime returns accumulated user-privilege execution time.
func (p *Process) UserTime() ktime.Duration { return p.userTime }

// KernelTime returns accumulated kernel-privilege execution time attributed
// to this process (syscalls it made; not interrupts).
func (p *Process) KernelTime() ktime.Duration { return p.kernTime }

// Switches returns how many times the process was switched in.
func (p *Process) Switches() uint64 { return p.switches }
