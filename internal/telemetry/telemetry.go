// Package telemetry is the simulator's cross-layer observability subsystem
// (DESIGN.md S24): a deterministic trace recorder plus a metrics registry,
// threaded as a single *Sink through the kernel, the PMU, the K-LEB module
// and the session layer.
//
// Two properties drive the design:
//
//   - Zero overhead when disabled. Every emit method is safe on a nil
//     *Sink and returns immediately, so an uninstrumented run pays one
//     predicted branch per call site — no allocation, no formatting, no
//     locks. BENCH_telemetry.json records the measured cost.
//
//   - Reproducible observability. Events are stamped with virtual ktime,
//     never wall-clock, and a Sink is owned by exactly one simulated run,
//     so the exported trace and metrics are byte-identical for the same
//     Spec at any scheduler worker count and across repeated runs with
//     the same seed. The observability layer never perturbs the
//     simulation: emitting costs no virtual time and consumes no
//     randomness.
//
// Exporters render the captured data three ways: Chrome trace-event JSON
// (WriteChromeTrace, loadable in Perfetto or chrome://tracing), Prometheus
// text exposition (WritePrometheus), and a human Markdown summary
// (report.Writer.Telemetry).
package telemetry

import "kleb/internal/ktime"

// DefaultEvents is the Recorder ring capacity when New is used. At K-LEB's
// 100µs sampling a 2-second run emits on the order of 100k events; the
// ring grows to this bound and then keeps the most recent window of a long
// run instead of growing without bound.
const DefaultEvents = 1 << 17

// Sink bundles the trace Recorder and the metrics Registry for one
// simulated run (or one scheduler batch). A Sink is single-owner: it must
// only be written by the goroutine executing its run. The nil *Sink is the
// disabled state; every method below tolerates it — the marker makes
// klebvet's emitguard analyzer enforce that contract on every method.
//
//klebvet:nilsafe
type Sink struct {
	rec Recorder
	reg Registry
}

// New returns a Sink recording up to DefaultEvents trace events.
func New() *Sink { return NewWithCapacity(DefaultEvents) }

// NewWithCapacity returns a Sink whose Recorder holds up to n events. The
// ring is allocated as events arrive, not up front. n <= 0 yields a
// metrics-only Sink (no event recording), the cheap shape the batch
// scheduler injects per run when aggregating registries.
func NewWithCapacity(n int) *Sink {
	return &Sink{rec: Recorder{limit: max(n, 0)}}
}

// MetricsOnly returns a Sink that aggregates metrics but records no trace
// events.
func MetricsOnly() *Sink { return NewWithCapacity(0) }

// Enabled reports whether the sink is live (non-nil).
func (s *Sink) Enabled() bool { return s != nil }

// Events returns the recorded trace in capture order (oldest first).
func (s *Sink) Events() []Event {
	if s == nil {
		return nil
	}
	return s.rec.Events()
}

// Truncated returns how many events the bounded ring discarded (oldest
// first) to stay within capacity.
func (s *Sink) Truncated() uint64 {
	if s == nil {
		return 0
	}
	return s.rec.truncated
}

// Registry returns the sink's metrics for inspection and merging. Nil for
// a disabled sink.
func (s *Sink) Registry() *Registry {
	if s == nil {
		return nil
	}
	return &s.reg
}

// Merge folds another sink's metrics into this one. Counter, gauge and
// histogram merges are commutative, so a batch registry assembled from
// per-run sinks is identical for any completion order or worker count.
// Trace events are not merged — a trace belongs to one run. The error
// reports label-dimension conflicts between the two registries (see
// Registry.Merge); it is nil whenever both sinks were fed through the
// emit API.
func (s *Sink) Merge(o *Sink) error {
	if s == nil || o == nil {
		return nil
	}
	return s.reg.Merge(&o.reg)
}

// --- Emit API -------------------------------------------------------------
//
// One method per event class in the taxonomy. Each is nil-receiver safe and
// records the event (if the ring is enabled) plus the derived metrics.

// CtxSwitch records a context switch from prev to next (0 = idle).
func (s *Sink) CtxSwitch(now ktime.Time, prev, next int32) {
	if s == nil {
		return
	}
	s.reg.CtxSwitches.Add(1)
	s.rec.record(Event{Time: now, Kind: KindCtxSwitch, PID: next, Arg1: uint64(uint32(prev))})
}

// TimerArm records an HRTimer being armed (or re-armed) for nominal expiry.
func (s *Sink) TimerArm(now ktime.Time, id uint64, nominal ktime.Time) {
	if s == nil {
		return
	}
	s.reg.TimerArms.Add(1)
	s.rec.record(Event{Time: now, Kind: KindTimerArm, Arg1: id, Arg2: uint64(nominal)})
}

// TimerFire records an HRTimer expiry. nominal is the drift-free grid
// position, effective the jittered instant the interrupt actually fired;
// their difference is the per-fire timer jitter the paper warns about.
func (s *Sink) TimerFire(now ktime.Time, id uint64, nominal, effective ktime.Time) {
	if s == nil {
		return
	}
	s.reg.TimerFires.Add(1)
	s.reg.TimerJitter.Observe(uint64(effective.Sub(nominal)))
	s.rec.record(Event{Time: now, Kind: KindTimerFire, Arg1: uint64(nominal), Arg2: uint64(effective)})
}

// TimerCancel records an HRTimer being disarmed.
func (s *Sink) TimerCancel(now ktime.Time, id uint64) {
	if s == nil {
		return
	}
	s.reg.TimerCancels.Add(1)
	s.rec.record(Event{Time: now, Kind: KindTimerCancel, Arg1: id})
}

// Kprobe records one probe invocation at a probe point ("switch", "fork",
// "exit"). pid is the process the probe observed.
func (s *Sink) Kprobe(now ktime.Time, point string, pid int32) {
	if s == nil {
		return
	}
	s.reg.KprobeHits.AddKeyed("point", point, 1)
	s.rec.record(Event{Time: now, Kind: KindKprobe, PID: pid, Name: point})
}

// SyscallEnter records a process entering a syscall.
func (s *Sink) SyscallEnter(now ktime.Time, name string, pid int32) {
	if s == nil {
		return
	}
	s.reg.Syscalls.AddKeyed("name", name, 1)
	s.rec.record(Event{Time: now, Kind: KindSyscallEnter, PID: pid, Name: name})
}

// SyscallExit records the matching syscall return.
func (s *Sink) SyscallExit(now ktime.Time, name string, pid int32) {
	if s == nil {
		return
	}
	s.rec.record(Event{Time: now, Kind: KindSyscallExit, PID: pid, Name: name})
}

// PMI records a performance-monitoring interrupt delivery. latency is the
// raise-to-delivery delay (the interrupt was raised by a counter overflow,
// possibly mid-instruction-block).
func (s *Sink) PMI(now ktime.Time, counter int, fixed bool, latency ktime.Duration) {
	if s == nil {
		return
	}
	s.reg.PMIs.Add(1)
	s.reg.PMILatency.Observe(uint64(latency))
	s.rec.record(Event{Time: now, Kind: KindPMI, Arg1: counterArg(counter, fixed), Arg2: uint64(latency)})
}

// PMUOverflow records a hardware counter wrapping its 48-bit width.
func (s *Sink) PMUOverflow(now ktime.Time, counter int, fixed bool) {
	if s == nil {
		return
	}
	s.reg.PMUOverflows.Add(1)
	s.rec.record(Event{Time: now, Kind: KindOverflow, Arg1: counterArg(counter, fixed)})
}

// MuxRotate records perf_events rotating a multiplexed context to its next
// scheduling round: the target pid, the round index within the rotation
// cycle, the cycle length and how many requested events got counters.
func (s *Sink) MuxRotate(now ktime.Time, pid int32, round, rounds, placed int) {
	if s == nil {
		return
	}
	s.reg.MuxRotations.Add(1)
	s.rec.record(Event{Time: now, Kind: KindMuxRotate, PID: pid,
		Arg1: uint64(round), Arg2: uint64(rounds)<<32 | uint64(uint32(placed))})
}

// counterArg packs a counter index with its fixed/programmable class.
func counterArg(counter int, fixed bool) uint64 {
	v := uint64(uint32(counter))
	if fixed {
		v |= 1 << 32
	}
	return v
}

// Ioctl records a module ioctl on a device.
func (s *Sink) Ioctl(now ktime.Time, device string, cmd uint32, pid int32) {
	if s == nil {
		return
	}
	s.reg.Ioctls.AddKeyed("device", device, 1)
	s.rec.record(Event{Time: now, Kind: KindIoctl, PID: pid, Name: device, Arg1: uint64(cmd)})
}

// Stage records the completion of a session lifecycle stage ("boot",
// "attach", "drive", "drain") that spanned the dur ending at now.
func (s *Sink) Stage(now ktime.Time, stage string, dur ktime.Duration) {
	if s == nil {
		return
	}
	s.reg.StageNs.AddKeyed("stage", stage, uint64(dur))
	s.rec.record(Event{Time: now, Kind: KindStage, Name: stage, Arg1: uint64(dur)})
}

// SampleCaptured records the K-LEB module appending one sample to its
// kernel ring, which then holds depth of capacity samples.
func (s *Sink) SampleCaptured(now ktime.Time, depth, capacity int) {
	if s == nil {
		return
	}
	s.reg.Samples.Add(1)
	s.reg.RingHighWater.SetMax(uint64(depth))
	s.rec.record(Event{Time: now, Kind: KindSample, Arg1: uint64(depth), Arg2: uint64(capacity)})
}

// BufferPause records a buffer-full safety-pause engagement; dropped is
// the module's cumulative count of sampling periods lost so far (periods
// keep elapsing, and being counted, while the pause holds).
func (s *Sink) BufferPause(now ktime.Time, dropped uint64) {
	if s == nil {
		return
	}
	s.reg.RingPauses.Add(1)
	s.rec.record(Event{Time: now, Kind: KindPause, Arg1: dropped})
}

// BufferDrain records the controller draining n samples, leaving remaining
// in the ring.
func (s *Sink) BufferDrain(now ktime.Time, n, remaining int) {
	if s == nil {
		return
	}
	s.reg.RingDrained.Add(uint64(n))
	s.rec.record(Event{Time: now, Kind: KindDrain, Arg1: uint64(n), Arg2: uint64(remaining)})
}

// FaultInjected records the fault layer injecting one failure of the given
// kind (internal/fault's Kind* strings). Every injection is observable:
// the chaos invariant is only checkable because nothing fails silently.
func (s *Sink) FaultInjected(now ktime.Time, kind string) {
	if s == nil {
		return
	}
	s.reg.FaultsInjected.AddKeyed("kind", kind, 1)
	s.rec.record(Event{Time: now, Kind: KindFault, Name: kind})
}

// CtlRetry records the K-LEB controller retrying op after a transient
// failure; attempt is the consecutive-failure count for this op.
func (s *Sink) CtlRetry(now ktime.Time, op string, attempt uint64) {
	if s == nil {
		return
	}
	s.reg.CtlRetries.Add(1)
	s.rec.record(Event{Time: now, Kind: KindCtlRetry, Name: op, Arg1: attempt})
}

// RunDegraded records a run finishing with partial data (controller abort
// or unrecoverable write failures). Emitted at most once per run.
func (s *Sink) RunDegraded(now ktime.Time, reason string) {
	if s == nil {
		return
	}
	s.reg.RunsDegraded.Add(1)
	s.rec.record(Event{Time: now, Kind: KindDegraded, Name: reason})
}

// ProcessName records pid's human name for trace viewers (Perfetto thread
// labels). Emitted at spawn; carries no metric.
func (s *Sink) ProcessName(pid int32, name string) {
	if s == nil {
		return
	}
	s.rec.record(Event{Kind: KindMeta, PID: pid, Name: name})
}

// FleetNode records one fleet node finishing its monitoring round under
// klebd: the samples it captured plus its period-conservation ledger for
// the round (fires = captured + dropped + lost). degraded marks a run that
// finished with partial data; fault names the first unrecoverable fault
// ("" for a clean round).
func (s *Sink) FleetNode(now ktime.Time, node int32, fires, captured, dropped, lost uint64, degraded bool, fault string) {
	if s == nil {
		return
	}
	s.reg.FleetNodes.Add(1)
	s.reg.FleetSamples.Add(captured)
	s.reg.LedgerFires.Add(fires)
	s.reg.LedgerCaptured.Add(captured)
	s.reg.LedgerDropped.Add(dropped)
	s.reg.LedgerLost.Add(lost)
	var flags uint64
	if degraded {
		s.reg.FleetDegraded.Add(1)
		flags |= 1
	}
	if fault != "" {
		flags |= 2
	}
	s.rec.record(Event{Time: now, Kind: KindFleetNode, PID: node, Name: fault, Arg1: captured, Arg2: flags})
}

// FleetRound records one whole fleet round folding into the aggregate:
// every node of the round has completed and been ingested.
func (s *Sink) FleetRound(now ktime.Time, round uint64, nodes, degraded int) {
	if s == nil {
		return
	}
	s.reg.FleetRounds.Add(1)
	s.rec.record(Event{Time: now, Kind: KindFleetRound,
		Arg1: round, Arg2: uint64(nodes)<<32 | uint64(uint32(degraded))})
}

// RunDone records one batch run finishing on a logical scheduler slot
// (worker index under the pool's deterministic striped assignment). Only
// batch-level sinks receive these; the counters deliberately omit the slot
// so batch metrics stay identical across worker counts.
func (s *Sink) RunDone(index, slot int, failed bool) {
	if s == nil {
		return
	}
	s.reg.Runs.Add(1)
	if failed {
		s.reg.RunFailures.Add(1)
	}
	var f uint64
	if failed {
		f = 1
	}
	s.rec.record(Event{Kind: KindRun, PID: int32(slot), Arg1: uint64(index), Arg2: f})
}
