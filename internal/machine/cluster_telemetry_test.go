package machine

import (
	"bytes"
	"testing"

	"kleb/internal/ktime"
	"kleb/internal/telemetry"
)

// runInstrumentedCluster boots a 2-core cluster, optionally attaches one
// sink per core, runs the standard two-worker workload and returns the
// cores' exit times (the determinism witness) plus the sinks.
func runInstrumentedCluster(t *testing.T, seed uint64, instrument bool) ([2]ktime.Time, []*telemetry.Sink) {
	t.Helper()
	c := BootCluster(quiet(), seed, 2)
	var sinks []*telemetry.Sink
	if instrument {
		sinks = []*telemetry.Sink{telemetry.New(), telemetry.New()}
		c.SetTelemetry(sinks)
	}
	pa := c.Cores()[0].Kernel().Spawn("a", busyProg(60, 0x1000_0000, 1<<20))
	pb := c.Cores()[1].Kernel().Spawn("b", busyProg(80, 0x2000_0000, 2<<20))
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if !pa.Exited() || !pb.Exited() {
		t.Fatal("workloads did not finish")
	}
	return [2]ktime.Time{pa.ExitTime(), pb.ExitTime()}, sinks
}

// TestClusterTelemetryObserverEffectFree proves attaching sinks to every
// core changes nothing about the simulation: exit times are identical with
// and without instrumentation (the cluster equivalent of the single-machine
// zero-perturbation guarantee).
func TestClusterTelemetryObserverEffectFree(t *testing.T) {
	plain, _ := runInstrumentedCluster(t, 11, false)
	instr, sinks := runInstrumentedCluster(t, 11, true)
	if plain != instr {
		t.Errorf("telemetry perturbed the cluster: exits %v (nil sink) vs %v (instrumented)", plain, instr)
	}
	for i, s := range sinks {
		if s.Registry().CtxSwitches.Value() == 0 {
			t.Errorf("core %d sink observed nothing", i)
		}
	}
}

// TestClusterTelemetryDeterminism: same seed, two boots, per-core traces
// and metrics byte-identical.
func TestClusterTelemetryDeterminism(t *testing.T) {
	_, a := runInstrumentedCluster(t, 12, true)
	_, b := runInstrumentedCluster(t, 12, true)
	for i := range a {
		var ta, tb, pa, pb bytes.Buffer
		if err := a[i].WriteChromeTrace(&ta); err != nil {
			t.Fatal(err)
		}
		if err := b[i].WriteChromeTrace(&tb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ta.Bytes(), tb.Bytes()) {
			t.Errorf("core %d trace differs across identical boots", i)
		}
		if err := a[i].WritePrometheus(&pa); err != nil {
			t.Fatal(err)
		}
		if err := b[i].WritePrometheus(&pb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pa.Bytes(), pb.Bytes()) {
			t.Errorf("core %d metrics differ across identical boots", i)
		}
	}
}

// TestClusterTelemetryMergesCommutatively folds the per-core registries in
// both orders and demands byte-identical exposition — the property the
// fleet aggregator's shard merges rest on.
func TestClusterTelemetryMergesCommutatively(t *testing.T) {
	_, sinks := runInstrumentedCluster(t, 13, true)
	fold := func(order []int) *bytes.Buffer {
		total := telemetry.MetricsOnly()
		for _, i := range order {
			if err := total.Merge(sinks[i]); err != nil {
				t.Fatalf("merge core %d: %v", i, err)
			}
		}
		var buf bytes.Buffer
		if err := total.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	fwd, rev := fold([]int{0, 1}), fold([]int{1, 0})
	if !bytes.Equal(fwd.Bytes(), rev.Bytes()) {
		t.Errorf("core merge order changed the aggregate:\n%s\nvs\n%s", fwd.String(), rev.String())
	}
	if err := telemetry.LintExposition(bytes.NewReader(fwd.Bytes())); err != nil {
		t.Errorf("cluster aggregate fails exposition lint: %v", err)
	}
}

// TestClusterTelemetryShortSinkSlice: a sink slice shorter than the core
// count instruments only the covered cores.
func TestClusterTelemetryShortSinkSlice(t *testing.T) {
	c := BootCluster(quiet(), 14, 2)
	s := telemetry.MetricsOnly()
	c.SetTelemetry([]*telemetry.Sink{s})
	c.Cores()[0].Kernel().Spawn("a", busyProg(10, 0x1000_0000, 1<<20))
	c.Cores()[1].Kernel().Spawn("b", busyProg(10, 0x2000_0000, 1<<20))
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if s.Registry().CtxSwitches.Value() == 0 {
		t.Error("covered core not instrumented")
	}
}
