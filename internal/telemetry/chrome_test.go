package telemetry

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"kleb/internal/ktime"
)

// refWriteChromeEvents is the fmt-based Chrome exporter WriteChromeEvents
// replaced, kept as its oracle: every event goes through fmt.Fprintf, %q
// quotes the names and ts is a Sprintf.
func refWriteChromeEvents(w io.Writer, events []Event) error {
	cw := &refChromeWriter{w: w}
	cw.printf("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	cw.printf("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"machine\"}}", chromePidMachine)
	cw.printf(",\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"scheduler\"}}", chromePidScheduler)
	for _, e := range events {
		cw.event(e)
	}
	cw.printf("\n]}\n")
	return cw.err
}

type refChromeWriter struct {
	w         io.Writer
	err       error
	fleetMeta bool
}

func (c *refChromeWriter) fleetProcess() {
	if c.fleetMeta {
		return
	}
	c.fleetMeta = true
	c.printf(",\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"fleet\"}}", chromePidFleet)
}

func (c *refChromeWriter) printf(format string, args ...any) {
	if c.err != nil {
		return
	}
	_, c.err = fmt.Fprintf(c.w, format, args...)
}

func refTS(ns uint64) string {
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

func (c *refChromeWriter) head(ph, name string, pid int, tid int32, ns uint64) {
	c.printf(",\n{\"ph\":%q,\"name\":%q,\"pid\":%d,\"tid\":%d,\"ts\":%s", ph, name, pid, tid, refTS(ns))
}

func (c *refChromeWriter) instant(name string, tid int32, ns uint64) {
	c.head("i", name, chromePidMachine, tid, ns)
	c.printf(",\"s\":\"t\"")
}

func (c *refChromeWriter) end() { c.printf("}") }

func refBool(b uint64) string {
	if b != 0 {
		return "true"
	}
	return "false"
}

func (c *refChromeWriter) event(e Event) {
	ns := uint64(e.Time)
	switch e.Kind {
	case KindMeta:
		c.printf(",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":%q}}",
			chromePidMachine, e.PID, e.Name)
	case KindCtxSwitch:
		c.instant("ctx-switch", e.PID, ns)
		c.printf(",\"args\":{\"prev\":%d,\"next\":%d}", int32(uint32(e.Arg1)), e.PID)
		c.end()
	case KindTimerArm:
		c.instant("hrtimer-arm", 0, ns)
		c.printf(",\"args\":{\"timer\":%d,\"nominal_ns\":%d}", e.Arg1, e.Arg2)
		c.end()
	case KindTimerFire:
		c.instant("hrtimer-fire", 0, ns)
		c.printf(",\"args\":{\"nominal_ns\":%d,\"effective_ns\":%d,\"jitter_ns\":%d}",
			e.Arg1, e.Arg2, e.Arg2-e.Arg1)
		c.end()
	case KindTimerCancel:
		c.instant("hrtimer-cancel", 0, ns)
		c.printf(",\"args\":{\"timer\":%d}", e.Arg1)
		c.end()
	case KindKprobe:
		c.instant("kprobe:"+e.Name, e.PID, ns)
		c.end()
	case KindSyscallEnter:
		c.head("B", "sys:"+e.Name, chromePidMachine, e.PID, ns)
		c.end()
	case KindSyscallExit:
		c.head("E", "sys:"+e.Name, chromePidMachine, e.PID, ns)
		c.end()
	case KindPMI:
		c.instant("pmi", 0, ns)
		c.printf(",\"args\":{\"counter\":%d,\"fixed\":%s,\"latency_ns\":%d}",
			uint32(e.Arg1), refBool(e.Arg1>>32), e.Arg2)
		c.end()
	case KindOverflow:
		c.instant("pmu-overflow", 0, ns)
		c.printf(",\"args\":{\"counter\":%d,\"fixed\":%s}", uint32(e.Arg1), refBool(e.Arg1>>32))
		c.end()
	case KindIoctl:
		c.instant("ioctl:"+e.Name, e.PID, ns)
		c.printf(",\"args\":{\"cmd\":%d}", e.Arg1)
		c.end()
	case KindStage:
		c.head("X", "stage:"+e.Name, chromePidMachine, 0, ns-e.Arg1)
		c.printf(",\"dur\":%s", refTS(e.Arg1))
		c.end()
	case KindSample:
		c.head("C", "kleb-ring", chromePidMachine, 0, ns)
		c.printf(",\"args\":{\"depth\":%d}", e.Arg1)
		c.end()
	case KindPause:
		c.instant("kleb-pause", 0, ns)
		c.printf(",\"args\":{\"stops\":%d}", e.Arg1)
		c.end()
	case KindDrain:
		c.instant("kleb-drain", 0, ns)
		c.printf(",\"args\":{\"drained\":%d,\"remaining\":%d}", e.Arg1, e.Arg2)
		c.end()
		c.head("C", "kleb-ring", chromePidMachine, 0, ns)
		c.printf(",\"args\":{\"depth\":%d}", e.Arg2)
		c.end()
	case KindRun:
		c.head("i", "run", chromePidScheduler, e.PID, ns)
		c.printf(",\"s\":\"t\",\"args\":{\"index\":%d,\"failed\":%s}", e.Arg1, refBool(e.Arg2))
		c.end()
	case KindFault:
		c.instant("fault:"+e.Name, 0, ns)
		c.end()
	case KindCtlRetry:
		c.instant("ctl-retry:"+e.Name, 0, ns)
		c.printf(",\"args\":{\"attempt\":%d}", e.Arg1)
		c.end()
	case KindDegraded:
		c.instant("run-degraded", 0, ns)
		c.printf(",\"args\":{\"reason\":%q}", e.Name)
		c.end()
	case KindMuxRotate:
		c.instant("mux-rotate", e.PID, ns)
		c.printf(",\"args\":{\"round\":%d,\"rounds\":%d,\"placed\":%d}",
			e.Arg1, e.Arg2>>32, uint32(e.Arg2))
		c.end()
	case KindFleetNode:
		c.fleetProcess()
		name := "fleet-node"
		if e.Arg2&2 != 0 {
			name = "fleet-node:" + e.Name
		}
		c.head("i", name, chromePidFleet, e.PID, ns)
		c.printf(",\"s\":\"t\",\"args\":{\"samples\":%d,\"degraded\":%s,\"faulted\":%s}",
			e.Arg1, refBool(e.Arg2&1), refBool(e.Arg2&2))
		c.end()
	case KindFleetRound:
		c.fleetProcess()
		c.head("i", "fleet-round", chromePidFleet, 0, ns)
		c.printf(",\"s\":\"p\",\"args\":{\"round\":%d,\"nodes\":%d,\"degraded\":%d}",
			e.Arg1, e.Arg2>>32, uint32(e.Arg2))
		c.end()
	}
}

// chromeNames are the names the fuzzer's seeds and the long-trace test draw
// from: empty, plain, quotes, backslashes, control bytes, non-ASCII,
// invalid UTF-8 and a name longer than a short-string buffer.
var chromeNames = []string{
	"", "nanosleep", `say "hi"`, `C:\kleb\log`, "tab\there\nnl\x00nul\x7f",
	"naïve—µs ✓ 核", "\xff\xfe bad \xc3", "\u2028\U0001F600", string(bytes.Repeat([]byte("long-name/"), 12)),
}

// chromeExtremes are Arg1/Arg2/Time values at the edges of their ranges.
var chromeExtremes = []uint64{0, 1, 999, 1000, 1 << 31, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, math.MaxUint64}

// decodeEvents turns fuzz bytes into events. Each event reads one byte
// that picks its kind (one past the last kind included, which both
// exporters ignore) and one of chromeNames, then optionally a raw name
// (a byte with the top bit set holding its length, then the bytes), then
// Time, PID, Arg1 and Arg2 as little-endian words; short input reads as
// zeros.
func decodeEvents(data []byte) []Event {
	word := func(n int) uint64 {
		var b [8]byte
		k := copy(b[:n], data)
		data = data[k:]
		return binary.LittleEndian.Uint64(b[:])
	}
	var evs []Event
	for len(data) > 0 {
		kind := Kind(data[0] % uint8(numKinds+1))
		name := chromeNames[int(data[0]/uint8(numKinds+1))%len(chromeNames)]
		data = data[1:]
		if len(data) > 0 && data[0]&0x80 != 0 {
			// A raw name: the next byte is its length, the bytes follow.
			n := int(data[0] & 0x3f)
			data = data[1:]
			n = min(n, len(data))
			name, data = string(data[:n]), data[n:]
		}
		evs = append(evs, Event{
			Kind: kind,
			Name: name,
			Time: ktime.Time(word(8)),
			PID:  int32(uint32(word(4))),
			Arg1: word(8),
			Arg2: word(8),
		})
	}
	return evs
}

// allKindsEvents is one event of every kind (and an unknown one) per name
// and extreme, so the seeds and the long-trace test cover every branch of
// the exporter.
func allKindsEvents() []Event {
	var evs []Event
	for i, name := range chromeNames {
		for j, x := range chromeExtremes {
			for k := Kind(0); k <= numKinds; k++ {
				y := chromeExtremes[(j+int(k)+i)%len(chromeExtremes)]
				evs = append(evs, Event{
					Kind: k, Name: name, Time: ktime.Time(x ^ y),
					PID: int32(uint32(y)), Arg1: x, Arg2: y,
				})
			}
		}
	}
	return evs
}

// encodeEvent is decodeEvents' inverse for one event with a raw name.
func encodeEvent(e Event) []byte {
	n := min(len(e.Name), 0x3f)
	b := []byte{byte(e.Kind), 0x80 | byte(n)}
	b = append(b, e.Name[:n]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Time))
	b = binary.LittleEndian.AppendUint32(b, uint32(e.PID))
	b = binary.LittleEndian.AppendUint64(b, e.Arg1)
	return binary.LittleEndian.AppendUint64(b, e.Arg2)
}

// requireSameTrace renders evs with both exporters and requires equal
// bytes and equal errors.
func requireSameTrace(t *testing.T, evs []Event) {
	t.Helper()
	var got, want bytes.Buffer
	gotErr := WriteChromeEvents(&got, evs)
	wantErr := refWriteChromeEvents(&want, evs)
	if gotErr != nil || wantErr != nil {
		t.Fatalf("errors: WriteChromeEvents %v, reference %v", gotErr, wantErr)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("trace differs from the fmt reference at byte %d (lengths %d, %d):\n got  %q\n want %q",
			i, len(g), len(w), g[lo:min(i+80, len(g))], w[lo:min(i+80, len(w))])
	}
}

// FuzzChromeMatchesReference requires WriteChromeEvents to write exactly
// the bytes of the fmt exporter it replaced, for random event slices.
func FuzzChromeMatchesReference(f *testing.F) {
	f.Add([]byte{})
	for _, e := range allKindsEvents() {
		if e.Arg1 == math.MaxUint64 || e.Arg1 == 0 {
			f.Add(encodeEvent(e))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireSameTrace(t, decodeEvents(data))
	})
}

// TestChromeLongTraceMatchesReference renders a trace of several buffer
// flushes, whose fleet metadata is written after other events, against
// the reference.
func TestChromeLongTraceMatchesReference(t *testing.T) {
	evs := allKindsEvents()
	for len(evs) < 3*chromeFlushBytes/40 {
		evs = append(evs, evs...)
	}
	requireSameTrace(t, evs)
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errFull = errors.New("sink full")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestChromeWriteErrorIsReturned requires the write error back whichever
// write fails: the only one of a short trace, the first flush of a long
// one, or a flush after one that succeeded.
func TestChromeWriteErrorIsReturned(t *testing.T) {
	evs := allKindsEvents()
	for _, tc := range []struct{ events, accept int }{
		{10, 0}, {len(evs), 0}, {len(evs), 2 * chromeFlushBytes},
	} {
		if err := WriteChromeEvents(&failAfter{n: tc.accept}, evs[:tc.events]); !errors.Is(err, errFull) {
			t.Errorf("%d events to a writer failing after %d bytes: err = %v, want %v", tc.events, tc.accept, err, errFull)
		}
	}
}
