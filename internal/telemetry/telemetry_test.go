package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"kleb/internal/ktime"
)

// emitOneOfEach drives every emit method once, with distinct arguments.
func emitOneOfEach(s *Sink) {
	s.ProcessName(1, "target")
	s.CtxSwitch(10, 0, 1)
	s.TimerArm(20, 7, 120)
	s.TimerFire(125, 7, 120, 125)
	s.TimerCancel(130, 7)
	s.Kprobe(140, "switch", 1)
	s.SyscallEnter(150, "nanosleep", 1)
	s.SyscallExit(160, "nanosleep", 1)
	s.PMI(170, 2, false, 9)
	s.PMUOverflow(180, 1, true)
	s.Ioctl(190, "kleb", 4, 2)
	s.Stage(200, "drive", 180)
	s.SampleCaptured(210, 3, 8192)
	s.BufferPause(220, 1)
	s.BufferDrain(230, 3, 0)
	s.RunDone(0, 0, false)
}

func TestNilSinkIsSafeAndEmpty(t *testing.T) {
	var s *Sink
	emitOneOfEach(s) // must not panic
	if err := s.Merge(New()); err != nil {
		t.Errorf("nil sink Merge: %v", err)
	}
	if s.Enabled() {
		t.Error("nil sink reports Enabled")
	}
	if got := s.Events(); got != nil {
		t.Errorf("nil sink Events = %v, want nil", got)
	}
	if s.Registry() != nil {
		t.Error("nil sink Registry non-nil")
	}
	if s.Truncated() != 0 {
		t.Error("nil sink Truncated non-zero")
	}
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil sink trace is invalid JSON: %v", err)
	}
	buf.Reset()
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil sink Prometheus output non-empty: %q", buf.String())
	}
}

// TestRecorderDropsOldestWhenFull feeds a capacity-n sink fewer, exactly
// and more than n events, across and beyond a whole wrap of the ring:
// Events returns the newest min(count, n) oldest-first, Truncated the
// number dropped, and the metrics still count every event.
func TestRecorderDropsOldestWhenFull(t *testing.T) {
	for _, n := range []int{1, 4, 8} {
		for _, count := range []int{n - 1, n, n + 2, 2*n + 3} {
			t.Run(fmt.Sprintf("cap%d/fed%d", n, count), func(t *testing.T) {
				s := NewWithCapacity(n)
				for i := 0; i < count; i++ {
					s.CtxSwitch(ktime.Time(i), int32(i), int32(i+1))
				}
				kept := min(count, n)
				evs := s.Events()
				if len(evs) != kept || s.rec.Len() != kept {
					t.Fatalf("Events() has %d, Len() %d, want %d", len(evs), s.rec.Len(), kept)
				}
				if got, want := s.Truncated(), uint64(count-kept); got != want {
					t.Errorf("Truncated = %d, want %d", got, want)
				}
				for i, e := range evs {
					if want := ktime.Time(count - kept + i); e.Time != want {
						t.Errorf("event %d time = %d, want %d (oldest-first window)", i, e.Time, want)
					}
				}
				if got := s.Registry().CtxSwitches.Value(); got != uint64(count) {
					t.Errorf("CtxSwitches = %d, want %d", got, count)
				}
			})
		}
	}
}

var keepSink *Sink

// TestRecorderAllocatesLazily pins that a ring's capacity costs nothing
// until events arrive: NewWithCapacity(1<<14) allocates less than 1 KiB
// more than a metrics-only sink.
func TestRecorderAllocatesLazily(t *testing.T) {
	bytesPer := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 100
	}
	base := bytesPer(func() { keepSink = MetricsOnly() })
	ring := bytesPer(func() { keepSink = NewWithCapacity(1 << 14) })
	if ring >= base+1024 {
		t.Errorf("NewWithCapacity(1<<14) allocates %d B, a metrics-only sink %d B: the ring is allocated up front", ring, base)
	}
}

func TestMetricsOnlyRecordsNoEvents(t *testing.T) {
	s := MetricsOnly()
	emitOneOfEach(s)
	if len(s.Events()) != 0 {
		t.Errorf("metrics-only sink recorded %d events", len(s.Events()))
	}
	if s.Registry().TimerFires.Value() != 1 {
		t.Error("metrics-only sink did not aggregate metrics")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 500, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Sum() != 1506 {
		t.Fatalf("Sum = %d", h.Sum())
	}
	if got := h.Mean(); got != 251 {
		t.Errorf("Mean = %v, want 251", got)
	}
	// bits.Len64 buckets: 0→0, 1→1, 2,3→2, 500→9, 1000→10.
	for i, want := range map[int]uint64{0: 1, 1: 1, 2: 2, 9: 1, 10: 1} {
		if h.buckets[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, h.buckets[i], want)
		}
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("p0 = %d, want 0", got)
	}
	if got := h.Quantile(0.5); got != 3 {
		t.Errorf("p50 = %d, want 3 (upper bound of bucket 2)", got)
	}
	if got := h.Quantile(1); got != 1023 {
		t.Errorf("p100 = %d, want 1023", got)
	}
}

func TestBucketUpperBounds(t *testing.T) {
	cases := map[int]uint64{0: 0, 1: 1, 2: 3, 10: 1023, 64: ^uint64(0), 70: ^uint64(0)}
	for i, want := range cases {
		if got := bucketUpper(i); got != want {
			t.Errorf("bucketUpper(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestRegistryMergeIsCommutative(t *testing.T) {
	mk := func(order []int) *Sink {
		sinks := []*Sink{MetricsOnly(), MetricsOnly(), MetricsOnly()}
		sinks[0].CtxSwitch(1, 0, 1)
		sinks[0].Kprobe(2, "switch", 1)
		sinks[1].TimerFire(3, 1, 2, 5)
		sinks[1].Kprobe(4, "fork", 2)
		sinks[2].TimerFire(5, 1, 6, 7)
		sinks[2].SampleCaptured(6, 9, 16)
		total := MetricsOnly()
		for _, i := range order {
			if err := total.Merge(sinks[i]); err != nil {
				t.Fatalf("merge %d: %v", i, err)
			}
		}
		return total
	}
	var a, b bytes.Buffer
	if err := mk([]int{0, 1, 2}).WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := mk([]int{2, 0, 1}).WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("merge order changed the exported metrics:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestCounterVecLabelsSorted(t *testing.T) {
	var v CounterVec
	for _, l := range []string{"zeta", "alpha", "mid"} {
		v.Add(l, 1)
	}
	got := v.Labels()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Labels = %v, want %v", got, want)
		}
	}
}

func TestChromeTraceIsValidAndComplete(t *testing.T) {
	s := New()
	emitOneOfEach(s)
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents {
		seen[e.Name] = true
		if e.Name == "hrtimer-fire" {
			if e.Args["jitter_ns"] != float64(5) {
				t.Errorf("hrtimer-fire jitter_ns = %v, want 5", e.Args["jitter_ns"])
			}
		}
	}
	for _, name := range []string{
		"ctx-switch", "hrtimer-arm", "hrtimer-fire", "hrtimer-cancel",
		"kprobe:switch", "sys:nanosleep", "pmi", "pmu-overflow", "ioctl:kleb",
		"stage:drive", "kleb-ring", "kleb-pause", "kleb-drain", "run",
		"process_name", "thread_name",
	} {
		if !seen[name] {
			t.Errorf("trace is missing %q events", name)
		}
	}
}

func TestTimestampRendering(t *testing.T) {
	cases := map[uint64]string{0: "0.000", 999: "0.999", 1000: "1.000", 1234567: "1234.567",
		1<<64 - 1: "18446744073709551.615"}
	for ns, want := range cases {
		if got := string(appendTS(nil, ns)); got != want {
			t.Errorf("appendTS(%d) = %q, want %q", ns, got, want)
		}
	}
}

// TestPrometheusShape line-checks the exposition: HELP/TYPE pairs, integer
// samples, and cumulative non-decreasing histogram buckets ending in +Inf.
func TestPrometheusShape(t *testing.T) {
	s := New()
	emitOneOfEach(s)
	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var lastBucket uint64
	inHist := false
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("bad sample line %q", line)
		}
		val, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("non-integer sample %q: %v", line, err)
		}
		switch {
		case strings.Contains(fields[0], `_bucket{le="+Inf"}`):
			if val < lastBucket {
				t.Errorf("+Inf bucket %d below last bucket %d", val, lastBucket)
			}
			inHist, lastBucket = false, 0
		case strings.Contains(fields[0], "_bucket{"):
			if inHist && val < lastBucket {
				t.Errorf("bucket sequence decreases at %q", line)
			}
			inHist, lastBucket = true, val
		}
	}
	for _, family := range []string{
		"kleb_ctx_switches_total", "kleb_hrtimer_jitter_ns_bucket",
		"kleb_hrtimer_jitter_ns_sum", "kleb_hrtimer_jitter_ns_count",
		"kleb_pmi_latency_ns_count", "kleb_ring_high_water",
		"kleb_stage_ns_total", "kleb_runs_total",
	} {
		if !strings.Contains(buf.String(), family) {
			t.Errorf("exposition is missing %s", family)
		}
	}
}

// The disabled path must be a branch, nothing more. scripts/bench_kernel.sh
// bounds this pair at 25ns (disabled) and 50ns (enabled).
func BenchmarkEmitDisabled(b *testing.B) {
	var s *Sink
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.CtxSwitch(ktime.Time(i), 1, 2)
	}
}

func BenchmarkEmitEnabled(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.CtxSwitch(ktime.Time(i), 1, 2)
	}
}

func BenchmarkEmitMetricsOnly(b *testing.B) {
	s := MetricsOnly()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.TimerFire(ktime.Time(i), 1, ktime.Time(i), ktime.Time(i+3))
	}
}
