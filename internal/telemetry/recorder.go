package telemetry

import "kleb/internal/ktime"

// Kind classifies a trace event.
type Kind uint8

// The event taxonomy. Every class the ISSUE's observability layer captures
// has a distinct kind; exporters switch on it to pick the right rendering
// (instant, span, counter track or metadata).
const (
	// KindCtxSwitch: a context switch. PID = incoming process (0 = idle),
	// Arg1 = outgoing pid.
	KindCtxSwitch Kind = iota
	// KindTimerArm: an HRTimer armed/re-armed. Arg1 = timer id,
	// Arg2 = nominal expiry.
	KindTimerArm
	// KindTimerFire: an HRTimer expiry. Arg1 = nominal expiry,
	// Arg2 = effective (jittered) expiry; Arg2-Arg1 is the per-fire jitter.
	KindTimerFire
	// KindTimerCancel: an HRTimer disarmed. Arg1 = timer id.
	KindTimerCancel
	// KindKprobe: a probe invocation. Name = probe point, PID = observed
	// process.
	KindKprobe
	// KindSyscallEnter / KindSyscallExit: syscall boundaries. Name =
	// syscall, PID = caller.
	KindSyscallEnter
	KindSyscallExit
	// KindPMI: a performance-monitoring interrupt delivery. Arg1 = packed
	// counter id, Arg2 = raise-to-delivery latency in ns.
	KindPMI
	// KindOverflow: a 48-bit hardware counter wrap. Arg1 = packed counter.
	KindOverflow
	// KindIoctl: a module ioctl. Name = device, Arg1 = command, PID =
	// caller.
	KindIoctl
	// KindStage: a session lifecycle stage completion. Name = stage,
	// Arg1 = stage duration in ns.
	KindStage
	// KindSample: the K-LEB module captured a sample. Arg1 = ring depth
	// after the push, Arg2 = ring capacity.
	KindSample
	// KindPause: a buffer-full safety stop. Arg1 = cumulative stops.
	KindPause
	// KindDrain: a controller drain. Arg1 = samples drained, Arg2 = left.
	KindDrain
	// KindMeta: process-name metadata for trace viewers. PID + Name.
	KindMeta
	// KindRun: one scheduler batch run completed. PID = logical worker
	// slot, Arg1 = batch index, Arg2 = 1 on failure.
	KindRun
	// KindFault: the fault layer injected one failure. Name = fault kind
	// (see internal/fault's Kind* strings).
	KindFault
	// KindCtlRetry: the K-LEB controller retried a transient ioctl failure.
	// Name = operation, Arg1 = consecutive attempt number.
	KindCtlRetry
	// KindDegraded: a run finished degraded (partial data). Name = reason.
	KindDegraded
	// KindMuxRotate: perf_events rotated a multiplexed context to its next
	// scheduling round. PID = target, Arg1 = round index, Arg2 = packed
	// (rounds << 32) | events placed this round.
	KindMuxRotate
	// KindFleetNode: one fleet node finished its monitoring round (klebd).
	// PID = node index, Arg1 = samples captured this round, Arg2 = bit 0
	// degraded, bit 1 faulted.
	KindFleetNode
	// KindFleetRound: a whole fleet round folded into the aggregate.
	// Arg1 = round index, Arg2 = packed (nodes << 32) | degraded nodes.
	KindFleetRound

	numKinds
)

var kindNames = [numKinds]string{
	KindCtxSwitch:    "ctx-switch",
	KindTimerArm:     "hrtimer-arm",
	KindTimerFire:    "hrtimer-fire",
	KindTimerCancel:  "hrtimer-cancel",
	KindKprobe:       "kprobe",
	KindSyscallEnter: "syscall-enter",
	KindSyscallExit:  "syscall-exit",
	KindPMI:          "pmi",
	KindOverflow:     "pmu-overflow",
	KindIoctl:        "ioctl",
	KindStage:        "stage",
	KindSample:       "kleb-sample",
	KindPause:        "kleb-pause",
	KindDrain:        "kleb-drain",
	KindMeta:         "meta",
	KindRun:          "run",
	KindFault:        "fault",
	KindCtlRetry:     "ctl-retry",
	KindDegraded:     "run-degraded",
	KindMuxRotate:    "mux-rotate",
	KindFleetNode:    "fleet-node",
	KindFleetRound:   "fleet-round",
}

// String returns the kind's stable wire name (used in both exporters).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one typed trace record stamped with virtual time. The Arg
// fields are kind-specific (see the Kind constants); keeping them as plain
// integers makes an Event allocation-free to construct.
type Event struct {
	Time ktime.Time
	Kind Kind
	PID  int32
	Name string
	Arg1 uint64
	Arg2 uint64
}

// Recorder is a bounded ring buffer of Events. It grows to its capacity as
// events arrive, so a short run never pays for a long run's ring; once
// full it discards the oldest event (flight-recorder semantics: a trace of
// a long run keeps its most recent window) and counts the loss in
// truncated. The drop policy is deterministic, so a truncated trace is
// still byte-identical across replays.
type Recorder struct {
	buf       []Event
	limit     int // capacity: buf grows to it, then wraps
	head      int // index of the oldest event; 0 until the first eviction
	truncated uint64
}

// record appends e, evicting the oldest event if the ring is full. A
// Recorder with no capacity (metrics-only sink) records nothing.
func (r *Recorder) record(e Event) {
	if len(r.buf) < r.limit {
		r.buf = append(r.buf, e)
		return
	}
	if r.limit == 0 {
		return
	}
	r.buf[r.head] = e
	r.head = (r.head + 1) % len(r.buf)
	r.truncated++
}

// Events returns the buffered events oldest-first.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}

// Len returns the number of buffered events.
func (r *Recorder) Len() int { return len(r.buf) }
