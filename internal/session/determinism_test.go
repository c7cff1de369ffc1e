package session_test

import (
	"bytes"
	"fmt"
	"testing"

	"kleb/internal/isa"
	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/monitor"
	"kleb/internal/session"
	"kleb/internal/telemetry"
	"kleb/internal/workload"
)

// telemetryWorkload is small enough that a batch of instrumented runs at
// several worker counts stays fast.
func telemetryWorkload() workload.Script {
	return workload.Synthetic{
		Name:       "tel",
		TotalInstr: 50_000_000,
		Footprint:  256 << 10,
	}.Script()
}

// telemetrySpecs builds n fully-instrumented kleb runs with decorrelated
// seeds, returning the specs and their private sinks.
func telemetrySpecs(n int) ([]session.Spec, []*telemetry.Sink) {
	specs := make([]session.Spec, n)
	sinks := make([]*telemetry.Sink, n)
	for i := range specs {
		sinks[i] = telemetry.New()
		specs[i] = session.Spec{
			Profile:   machine.Nehalem(),
			Seed:      session.DeriveSeed(99, i),
			NewTarget: newTargetFactory(telemetryWorkload()),
			NewTool:   klebFactory,
			Config: monitor.Config{
				Events:        []isa.Event{isa.EvInstructions, isa.EvLLCMisses},
				Period:        ktime.Millisecond,
				ExcludeKernel: true,
			},
			Telemetry: sinks[i],
		}
	}
	return specs, sinks
}

// batchExport runs n instrumented specs on a pool of w workers and renders
// every telemetry artefact to bytes: per-run Chrome traces, per-run
// Prometheus text, the batch registry's Prometheus text, and the batch
// Chrome trace (run-completion events).
type batchExport struct {
	traces  [][]byte
	metrics [][]byte
	batchMx []byte
	batchTr []byte
}

// runWithBatchSink runs specs on a pool of w workers with batch installed
// as the process-wide batch sink, and uninstalls it afterwards.
func runWithBatchSink(t *testing.T, w int, batch *telemetry.Sink, specs []session.Spec) {
	t.Helper()
	session.SetBatchTelemetry(batch)
	defer session.SetBatchTelemetry(nil)
	if err := session.FirstErr(session.Scheduler{Workers: w}.Run(specs)); err != nil {
		t.Fatal(err)
	}
}

func runBatch(t *testing.T, n, w int) batchExport {
	t.Helper()
	specs, sinks := telemetrySpecs(n)
	batch := telemetry.New()
	runWithBatchSink(t, w, batch, specs)
	var ex batchExport
	for _, s := range sinks {
		var tr, mx bytes.Buffer
		if err := s.WriteChromeTrace(&tr); err != nil {
			t.Fatal(err)
		}
		if err := s.WritePrometheus(&mx); err != nil {
			t.Fatal(err)
		}
		if tr.Len() == 0 || mx.Len() == 0 {
			t.Fatal("instrumented run produced empty telemetry")
		}
		ex.traces = append(ex.traces, tr.Bytes())
		ex.metrics = append(ex.metrics, mx.Bytes())
	}
	var bm, bt bytes.Buffer
	if err := batch.WritePrometheus(&bm); err != nil {
		t.Fatal(err)
	}
	if err := batch.WriteChromeTrace(&bt); err != nil {
		t.Fatal(err)
	}
	ex.batchMx = bm.Bytes()
	ex.batchTr = bt.Bytes()
	return ex
}

// TestTelemetryDeterminismAcrossWorkers is the PR's core guarantee: the
// per-run trace and metrics of every Spec are byte-identical whether the
// batch ran serially or on 2 or 8 workers, and the batch-level aggregate
// registry is worker-count independent too.
func TestTelemetryDeterminismAcrossWorkers(t *testing.T) {
	const n = 6
	ref := runBatch(t, n, 1)
	for _, w := range []int{2, 8} {
		got := runBatch(t, n, w)
		for i := 0; i < n; i++ {
			if !bytes.Equal(ref.traces[i], got.traces[i]) {
				t.Errorf("run %d: Chrome trace differs between 1 and %d workers", i, w)
			}
			if !bytes.Equal(ref.metrics[i], got.metrics[i]) {
				t.Errorf("run %d: Prometheus text differs between 1 and %d workers:\n%s\nvs\n%s",
					i, w, ref.metrics[i], got.metrics[i])
			}
		}
		if !bytes.Equal(ref.batchMx, got.batchMx) {
			t.Errorf("batch registry differs between 1 and %d workers:\n%s\nvs\n%s",
				w, ref.batchMx, got.batchMx)
		}
	}
}

// TestTelemetryDeterminismAcrossRepeats re-runs the same batch at a fixed
// worker count and demands every artefact — including the batch trace with
// its worker-slot attribution — replays byte for byte.
func TestTelemetryDeterminismAcrossRepeats(t *testing.T) {
	const n = 4
	for _, w := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			a, b := runBatch(t, n, w), runBatch(t, n, w)
			for i := 0; i < n; i++ {
				if !bytes.Equal(a.traces[i], b.traces[i]) {
					t.Errorf("run %d: trace not reproducible", i)
				}
				if !bytes.Equal(a.metrics[i], b.metrics[i]) {
					t.Errorf("run %d: metrics not reproducible", i)
				}
			}
			if !bytes.Equal(a.batchMx, b.batchMx) {
				t.Error("batch registry not reproducible")
			}
			if !bytes.Equal(a.batchTr, b.batchTr) {
				t.Error("batch trace (run events) not reproducible at fixed worker count")
			}
		})
	}
}

// TestTelemetryDeterminismBatchMetricsOnly covers the default Scheduler
// path, where specs carry no sink and the scheduler injects metrics-only
// sub-sinks: the merged aggregate must not depend on the worker count.
func TestTelemetryDeterminismBatchMetricsOnly(t *testing.T) {
	run := func(w int) []byte {
		specs, _ := telemetrySpecs(5)
		for i := range specs {
			specs[i].Telemetry = nil
		}
		batch := telemetry.MetricsOnly()
		runWithBatchSink(t, w, batch, specs)
		var buf bytes.Buffer
		if err := batch.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := run(1)
	if reg := run(1); !bytes.Equal(ref, reg) {
		t.Fatal("serial batch aggregate not reproducible")
	}
	for _, w := range []int{2, 8} {
		if got := run(w); !bytes.Equal(ref, got) {
			t.Errorf("batch aggregate differs between 1 and %d workers:\n%s\nvs\n%s", w, ref, got)
		}
	}
}
