package kleb_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"kleb"
)

// collectTelemetry runs one Collect with trace + metrics capture.
func collectTelemetry(t *testing.T, opts kleb.CollectOptions) (traceJSON, metrics []byte, report *kleb.Report) {
	t.Helper()
	var tr, mx bytes.Buffer
	opts.Trace = &tr
	opts.Metrics = &mx
	report, err := kleb.Collect(opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Bytes(), mx.Bytes(), report
}

type traceEvent struct {
	Ph   string         `json:"ph"`
	Name string         `json:"name"`
	Args map[string]any `json:"args"`
}

func decodeTrace(t *testing.T, raw []byte) []traceEvent {
	t.Helper()
	var doc struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("Collect trace is not valid Chrome trace JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	return doc.TraceEvents
}

// TestCollectTraceAcceptance is the PR's acceptance check: a full K-LEB
// collection at the paper's 100µs period exports a valid Chrome trace
// holding context switches, HRTimer fires with their jitter delta, K-LEB
// ring activity and all four session lifecycle stages.
func TestCollectTraceAcceptance(t *testing.T) {
	traceJSON, metrics, report := collectTelemetry(t, kleb.CollectOptions{
		Workload: kleb.Synthetic(100_000_000, 1<<20, 0.02),
		Events:   []kleb.Event{kleb.Instructions, kleb.LLCMisses},
		Period:   100 * kleb.Microsecond,
		Seed:     7,
	})
	if len(report.Samples) == 0 {
		t.Fatal("no samples collected")
	}
	events := decodeTrace(t, traceJSON)
	count := map[string]int{}
	jitterArgs := 0
	for _, e := range events {
		count[e.Name]++
		if e.Name == "hrtimer-fire" {
			if _, ok := e.Args["jitter_ns"]; ok {
				jitterArgs++
			}
		}
	}
	for _, name := range []string{
		"ctx-switch", "hrtimer-fire", "hrtimer-arm", "kprobe:switch",
		"ioctl:kleb", "kleb-ring",
		"stage:boot", "stage:attach", "stage:drive", "stage:drain",
	} {
		if count[name] == 0 {
			t.Errorf("trace has no %q events (have: %v)", name, count)
		}
	}
	if jitterArgs != count["hrtimer-fire"] {
		t.Errorf("%d of %d hrtimer-fire events carry jitter_ns", jitterArgs, count["hrtimer-fire"])
	}
	// A 100µs-period K-LEB run fires its timer roughly once per sample.
	if count["hrtimer-fire"] < len(report.Samples)/2 {
		t.Errorf("only %d hrtimer-fire events for %d samples", count["hrtimer-fire"], len(report.Samples))
	}

	text := string(metrics)
	for _, family := range []string{
		"kleb_hrtimer_jitter_ns_bucket{", "kleb_hrtimer_jitter_ns_count",
		"kleb_ctx_switches_total", "kleb_samples_total", "kleb_stage_ns_total{stage=\"drive\"}",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("Prometheus output is missing %s:\n%s", family, text)
		}
	}
}

// TestCollectTracePMI checks the interrupt path: perf-record samples via
// counter-overflow PMIs, so its trace must carry pmi events (with delivery
// latency) and pmu-overflow events.
func TestCollectTracePMI(t *testing.T) {
	traceJSON, metrics, _ := collectTelemetry(t, kleb.CollectOptions{
		Workload: kleb.Synthetic(100_000_000, 1<<20, 0.02),
		Events:   []kleb.Event{kleb.Instructions, kleb.LLCMisses},
		Tool:     kleb.ToolPerfRecord,
		Seed:     7,
	})
	pmis, overflows := 0, 0
	for _, e := range decodeTrace(t, traceJSON) {
		switch e.Name {
		case "pmi":
			pmis++
			if _, ok := e.Args["latency_ns"]; !ok {
				t.Fatal("pmi event lacks latency_ns")
			}
		case "pmu-overflow":
			overflows++
		}
	}
	if pmis == 0 || overflows == 0 {
		t.Errorf("perf-record trace: %d pmi, %d pmu-overflow events, want both > 0", pmis, overflows)
	}
	if !strings.Contains(string(metrics), "kleb_pmi_latency_ns_count") {
		t.Error("metrics lack the PMI latency histogram")
	}
}

// TestCollectTelemetryDeterminism pins the facade-level guarantee: for a
// fixed seed the exported trace and metrics are byte-identical across
// repeats and across scheduler worker counts (Baseline forces a multi-run
// batch through the scheduler).
func TestCollectTelemetryDeterminism(t *testing.T) {
	run := func(workers int) ([]byte, []byte) {
		tr, mx, _ := collectTelemetry(t, kleb.CollectOptions{
			Workload: kleb.Synthetic(60_000_000, 1<<20, 0.02),
			Events:   []kleb.Event{kleb.Instructions, kleb.LLCMisses},
			Period:   kleb.Millisecond,
			Seed:     11,
			Baseline: true,
			Workers:  workers,
		})
		return tr, mx
	}
	refTr, refMx := run(1)
	if len(refTr) == 0 || len(refMx) == 0 {
		t.Fatal("empty telemetry export")
	}
	for _, workers := range []int{1, 2, 8} {
		tr, mx := run(workers)
		if !bytes.Equal(refTr, tr) {
			t.Errorf("trace differs from the 1-worker reference at %d workers", workers)
		}
		if !bytes.Equal(refMx, mx) {
			t.Errorf("metrics differ from the 1-worker reference at %d workers", workers)
		}
	}
}
