package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kleb/internal/telemetry"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public entry point it calls. Spans of one run share the run span as
// parent.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects the traced run's spans and per-run telemetry in memory.
// A nil *tracer is the untraced run: every method is a no-op, so the timed
// code path is the same function with tracing switched off.
type tracer struct {
	epoch time.Time
	// sinks attaches a metrics-only telemetry sink to every run. The per-run
	// counts are simulated and so identical in every batch: the benchmark
	// takes them from the warm-up batch and keeps the telemetry layer's own
	// cost out of the profiled window.
	sinks bool

	mu        sync.Mutex
	spans     []span
	nextID    uint64
	sink      *telemetry.Sink // merge of every traced run's metrics-only sink
	sinkRuns  int
	queueWait telemetry.ExactQuantiles // ns from phase start to run start
	busy      time.Duration            // summed run time inside phases
	capacity  time.Duration            // workers × phase wall time
}

func newTracer(sinks bool) *tracer {
	return &tracer{epoch: time.Now(), sinks: sinks, sink: telemetry.MetricsOnly()}
}

// id allocates a span identifier (0 when untraced).
func (tr *tracer) id() uint64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.nextID++
	return tr.nextID
}

// add records a finished span under a pre-allocated id.
func (tr *tracer) add(id, parent uint64, name string, start, end time.Time) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(tr.epoch).Nanoseconds(), End: end.Sub(tr.epoch).Nanoseconds()})
	tr.mu.Unlock()
}

// do runs f as one span named name under parent.
func (tr *tracer) do(name string, parent uint64, f func() error) error {
	if tr == nil {
		return f()
	}
	id := tr.id()
	t0 := time.Now()
	err := f()
	tr.add(id, parent, name, t0, time.Now())
	return err
}

// sinkFor returns a fresh metrics-only sink for one run, or nil (a nil
// Spec.Telemetry keeps the run uninstrumented).
func (tr *tracer) sinkFor() *telemetry.Sink {
	if tr == nil || !tr.sinks {
		return nil
	}
	return telemetry.MetricsOnly()
}

// mergeRegistry folds an aggregate of runs telemetry already collected.
func (tr *tracer) mergeRegistry(reg *telemetry.Registry, runs int) {
	if tr == nil || !tr.sinks {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	// Registries share one taxonomy, so Merge cannot report a conflict.
	_ = tr.sink.Registry().Merge(reg)
	tr.sinkRuns += runs
}

// runDone folds one finished run's sink and its wait behind earlier runs of
// the same phase.
func (tr *tracer) runDone(s *telemetry.Sink, wait time.Duration) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if s != nil {
		// Every run's sink shares the registry taxonomy, so Merge cannot
		// report a label conflict here.
		_ = tr.sink.Merge(s)
		tr.sinkRuns++
	}
	tr.queueWait.Observe(uint64(wait))
}

// phaseDone records one scheduler phase's busy and available worker time.
func (tr *tracer) phaseDone(busy, wall time.Duration, workers int) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.busy += busy
	tr.capacity += wall * time.Duration(workers)
	tr.mu.Unlock()
}

// medianMs returns the median duration of the spans named name, in ms.
func (tr *tracer) medianMs(name string) float64 {
	var q telemetry.ExactQuantiles
	for _, s := range tr.spans {
		if s.Name == name {
			q.Observe(uint64(s.End - s.Start))
		}
	}
	return quantileMs(&q, 0.5)
}

// write stores the spans as JSON under dir.
func (tr *tracer) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tr.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
