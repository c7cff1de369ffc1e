package telemetry

import (
	"io"
	"strconv"
)

// Chrome trace-event pid values. The trace models the simulated machine as
// one "process" whose threads are the simulated PIDs, plus a separate
// scheduler process for batch-level occupancy events.
const (
	chromePidMachine   = 1
	chromePidScheduler = 2
	chromePidFleet     = 3
)

// chromeFlushBytes is how much rendered JSON the exporter buffers before
// handing it to the writer: the buffer is allocated once per export and
// reused, so an event costs appends into it and no allocation.
const chromeFlushBytes = 64 << 10

// WriteChromeTrace renders the recorded events as Chrome trace-event JSON
// (the JSON Array Format wrapped in an object), loadable in Perfetto or
// chrome://tracing. Timestamps are virtual microseconds with nanosecond
// decimals; the output is byte-deterministic for a given event stream.
//
//klebvet:artifact
func (s *Sink) WriteChromeTrace(w io.Writer) error {
	if s == nil {
		return WriteChromeEvents(w, nil)
	}
	return WriteChromeEvents(w, s.rec.Events())
}

// WriteChromeEvents renders an arbitrary event slice (oldest-first) in the
// same trace shape Sink.WriteChromeTrace produces. A live server renders a
// Snapshot's copied ring this way without holding the owning lock while
// formatting. The JSON is appended into one buffer with strconv and written
// to w about every chromeFlushBytes, then once at the end.
//
//klebvet:artifact
func WriteChromeEvents(w io.Writer, events []Event) error {
	c := &chromeWriter{w: w, b: make([]byte, 0, chromeFlushBytes+4<<10)}
	c.str(`{"displayTimeUnit":"ns","traceEvents":[` + "\n")
	c.processName(chromePidMachine, "machine")
	c.str(",\n")
	c.processName(chromePidScheduler, "scheduler")
	for _, e := range events {
		c.event(e)
		if len(c.b) >= chromeFlushBytes {
			c.flush()
		}
	}
	c.str("\n]}\n")
	c.flush()
	return c.err
}

type chromeWriter struct {
	w   io.Writer
	b   []byte // rendered JSON not yet written to w
	err error  // the first write error; later output is dropped
	// fleetMeta records that the fleet process_name metadata line has been
	// emitted. It is written lazily before the first fleet event so traces
	// without fleet activity stay byte-identical to pre-fleet output.
	fleetMeta bool
}

// flush writes the buffered JSON to w unless an earlier write failed.
func (c *chromeWriter) flush() {
	if c.err == nil {
		_, c.err = c.w.Write(c.b)
	}
	c.b = c.b[:0]
}

func (c *chromeWriter) str(s string) { c.b = append(c.b, s...) }

func (c *chromeWriter) int(v int64) { c.b = strconv.AppendInt(c.b, v, 10) }

func (c *chromeWriter) uint(v uint64) { c.b = strconv.AppendUint(c.b, v, 10) }

// quote appends prefix+name quoted as fmt's %q quotes it, without building
// the concatenation: every prefix is printable ASCII with no quote or
// backslash, which quoting copies as it is.
func (c *chromeWriter) quote(prefix, name string) {
	c.b = append(c.b, '"')
	c.str(prefix)
	if name == "" {
		c.b = append(c.b, '"')
		return
	}
	at := len(c.b)
	c.b = strconv.AppendQuote(c.b, name)
	c.b = append(c.b[:at], c.b[at+1:]...) // drop name's own opening quote
}

// bool appends a flag word as JSON true or false.
func (c *chromeWriter) bool(v uint64) {
	if v != 0 {
		c.str("true")
	} else {
		c.str("false")
	}
}

// processName appends one process_name metadata event.
func (c *chromeWriter) processName(pid int, name string) {
	c.str(`{"ph":"M","name":"process_name","pid":`)
	c.int(int64(pid))
	c.str(`,"tid":0,"args":{"name":"`)
	c.str(name)
	c.str(`"}}`)
}

// fleetProcess emits the fleet process metadata once per trace.
func (c *chromeWriter) fleetProcess() {
	if c.fleetMeta {
		return
	}
	c.fleetMeta = true
	c.str(",\n")
	c.processName(chromePidFleet, "fleet")
}

// appendTS appends a virtual-ns instant as the trace format's microsecond
// timestamp with three decimals, exactly (integer math only).
func appendTS(b []byte, ns uint64) []byte {
	b = strconv.AppendUint(b, ns/1000, 10)
	frac := ns % 1000
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}

// head opens one event object with the common fields; its name is
// prefix+name.
func (c *chromeWriter) head(ph, prefix, name string, pid int, tid int32, ns uint64) {
	c.str(",\n" + `{"ph":"`)
	c.str(ph)
	c.str(`","name":`)
	c.quote(prefix, name)
	c.str(`,"pid":`)
	c.int(int64(pid))
	c.str(`,"tid":`)
	c.int(int64(tid))
	c.str(`,"ts":`)
	c.b = appendTS(c.b, ns)
}

// instant emits a thread-scoped instant event named prefix+name; close
// with args or end.
func (c *chromeWriter) instant(prefix, name string, tid int32, ns uint64) {
	c.head("i", prefix, name, chromePidMachine, tid, ns)
	c.str(`,"s":"t"`)
}

func (c *chromeWriter) end() { c.str("}") }

// event renders one recorded event as one (occasionally two) trace events.
func (c *chromeWriter) event(e Event) {
	ns := uint64(e.Time)
	switch e.Kind {
	case KindMeta:
		c.str(",\n" + `{"ph":"M","name":"thread_name","pid":`)
		c.int(chromePidMachine)
		c.str(`,"tid":`)
		c.int(int64(e.PID))
		c.str(`,"args":{"name":`)
		c.quote("", e.Name)
		c.str("}}")
	case KindCtxSwitch:
		c.instant("ctx-switch", "", e.PID, ns)
		c.str(`,"args":{"prev":`)
		c.int(int64(int32(uint32(e.Arg1))))
		c.str(`,"next":`)
		c.int(int64(e.PID))
		c.str("}}")
	case KindTimerArm:
		c.instant("hrtimer-arm", "", 0, ns)
		c.str(`,"args":{"timer":`)
		c.uint(e.Arg1)
		c.str(`,"nominal_ns":`)
		c.uint(e.Arg2)
		c.str("}}")
	case KindTimerFire:
		c.instant("hrtimer-fire", "", 0, ns)
		c.str(`,"args":{"nominal_ns":`)
		c.uint(e.Arg1)
		c.str(`,"effective_ns":`)
		c.uint(e.Arg2)
		c.str(`,"jitter_ns":`)
		c.uint(e.Arg2 - e.Arg1)
		c.str("}}")
	case KindTimerCancel:
		c.instant("hrtimer-cancel", "", 0, ns)
		c.str(`,"args":{"timer":`)
		c.uint(e.Arg1)
		c.str("}}")
	case KindKprobe:
		c.instant("kprobe:", e.Name, e.PID, ns)
		c.end()
	case KindSyscallEnter:
		c.head("B", "sys:", e.Name, chromePidMachine, e.PID, ns)
		c.end()
	case KindSyscallExit:
		c.head("E", "sys:", e.Name, chromePidMachine, e.PID, ns)
		c.end()
	case KindPMI:
		c.instant("pmi", "", 0, ns)
		c.str(`,"args":{"counter":`)
		c.uint(uint64(uint32(e.Arg1)))
		c.str(`,"fixed":`)
		c.bool(e.Arg1 >> 32)
		c.str(`,"latency_ns":`)
		c.uint(e.Arg2)
		c.str("}}")
	case KindOverflow:
		c.instant("pmu-overflow", "", 0, ns)
		c.str(`,"args":{"counter":`)
		c.uint(uint64(uint32(e.Arg1)))
		c.str(`,"fixed":`)
		c.bool(e.Arg1 >> 32)
		c.str("}}")
	case KindIoctl:
		c.instant("ioctl:", e.Name, e.PID, ns)
		c.str(`,"args":{"cmd":`)
		c.uint(e.Arg1)
		c.str("}}")
	case KindStage:
		// A completed span: ts is the stage start, dur its virtual length.
		c.head("X", "stage:", e.Name, chromePidMachine, 0, ns-e.Arg1)
		c.str(`,"dur":`)
		c.b = appendTS(c.b, e.Arg1)
		c.end()
	case KindSample:
		// Counter track: Perfetto draws ring occupancy over time.
		c.head("C", "kleb-ring", "", chromePidMachine, 0, ns)
		c.str(`,"args":{"depth":`)
		c.uint(e.Arg1)
		c.str("}}")
	case KindPause:
		c.instant("kleb-pause", "", 0, ns)
		c.str(`,"args":{"stops":`)
		c.uint(e.Arg1)
		c.str("}}")
	case KindDrain:
		c.instant("kleb-drain", "", 0, ns)
		c.str(`,"args":{"drained":`)
		c.uint(e.Arg1)
		c.str(`,"remaining":`)
		c.uint(e.Arg2)
		c.str("}}")
		c.head("C", "kleb-ring", "", chromePidMachine, 0, ns)
		c.str(`,"args":{"depth":`)
		c.uint(e.Arg2)
		c.str("}}")
	case KindRun:
		c.head("i", "run", "", chromePidScheduler, e.PID, ns)
		c.str(`,"s":"t","args":{"index":`)
		c.uint(e.Arg1)
		c.str(`,"failed":`)
		c.bool(e.Arg2)
		c.str("}}")
	case KindFault:
		c.instant("fault:", e.Name, 0, ns)
		c.end()
	case KindCtlRetry:
		c.instant("ctl-retry:", e.Name, 0, ns)
		c.str(`,"args":{"attempt":`)
		c.uint(e.Arg1)
		c.str("}}")
	case KindDegraded:
		c.instant("run-degraded", "", 0, ns)
		c.str(`,"args":{"reason":`)
		c.quote("", e.Name)
		c.str("}}")
	case KindMuxRotate:
		c.instant("mux-rotate", "", e.PID, ns)
		c.str(`,"args":{"round":`)
		c.uint(e.Arg1)
		c.str(`,"rounds":`)
		c.uint(e.Arg2 >> 32)
		c.str(`,"placed":`)
		c.uint(uint64(uint32(e.Arg2)))
		c.str("}}")
	case KindFleetNode:
		c.fleetProcess()
		prefix, name := "fleet-node", ""
		if e.Arg2&2 != 0 {
			prefix, name = "fleet-node:", e.Name
		}
		c.head("i", prefix, name, chromePidFleet, e.PID, ns)
		c.str(`,"s":"t","args":{"samples":`)
		c.uint(e.Arg1)
		c.str(`,"degraded":`)
		c.bool(e.Arg2 & 1)
		c.str(`,"faulted":`)
		c.bool(e.Arg2 & 2)
		c.str("}}")
	case KindFleetRound:
		c.fleetProcess()
		c.head("i", "fleet-round", "", chromePidFleet, 0, ns)
		c.str(`,"s":"p","args":{"round":`)
		c.uint(e.Arg1)
		c.str(`,"nodes":`)
		c.uint(e.Arg2 >> 32)
		c.str(`,"degraded":`)
		c.uint(uint64(uint32(e.Arg2)))
		c.str("}}")
	}
}
