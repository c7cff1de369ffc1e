package fleet

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"kleb/internal/ktime"
	"kleb/internal/telemetry"
)

// testConfig is a small fleet exercising every node flavour: monitored
// singles, fault-injected runs and 2-core cluster nodes.
func testConfig(shards int) Config {
	return Config{
		Nodes:        8,
		Shards:       shards,
		Seed:         42,
		Rounds:       2,
		TargetInstr:  300_000,
		FaultEvery:   3,
		ClusterEvery: 5,
		Retention:    1 << 12,
	}
}

// fleetArtifacts runs cfg to completion and returns the deterministic
// aggregate rendered both ways.
func fleetArtifacts(t *testing.T, cfg Config) (metrics, trace []byte) {
	t.Helper()
	f := New(cfg)
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	snap, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var m, tr bytes.Buffer
	if err := snap.WritePrometheus(&m); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteChromeTrace(&tr); err != nil {
		t.Fatal(err)
	}
	return m.Bytes(), tr.Bytes()
}

// TestFleetAggregateDeterminism is the tentpole invariant: the fleet-level
// exposition AND the fleet trace window are byte-identical at 1, 2 and 8
// shards (extending the TelemetryDeterminism suite to the daemon layer).
// Every fleet after the first boots its node machines into cache storage
// released by earlier ones, and the last reruns the first fleet exactly.
func TestFleetAggregateDeterminism(t *testing.T) {
	baseM, baseT := fleetArtifacts(t, testConfig(1))
	if !strings.Contains(string(baseM), "kleb_fleet_rounds_total 2") {
		t.Fatalf("baseline did not fold 2 rounds:\n%s", baseM)
	}
	for _, shards := range []int{2, 8, 1} {
		m, tr := fleetArtifacts(t, testConfig(shards))
		if !bytes.Equal(baseM, m) {
			t.Errorf("fleet exposition differs between 1 and %d shards:\n--- 1 shard\n%s\n--- %d shards\n%s",
				shards, baseM, shards, m)
		}
		if !bytes.Equal(baseT, tr) {
			t.Errorf("fleet trace differs between 1 and %d shards", shards)
		}
	}
}

// TestFleetExpositionConformance: whatever the fleet serves must pass the
// strict exposition lint, fleet section and self section alike.
func TestFleetExpositionConformance(t *testing.T) {
	f := New(testConfig(4))
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	snap, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	st := f.Status()
	if err := f.self.writePrometheus(&buf, st.ShardLag, st.TraceEvicted); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.LintExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("served exposition fails lint: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "klebd_merge_latency_ns_count") {
		t.Error("self section missing merge latency histogram")
	}
}

// TestFleetLedgerConservation: the fleet-wide period-conservation ledger
// balances even with the background fault rate injecting losses.
func TestFleetLedgerConservation(t *testing.T) {
	f := New(testConfig(4))
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	st := f.Status()
	if !st.LedgerBalanced {
		t.Errorf("ledger unbalanced: fires %d != captured %d + dropped %d + lost %d",
			st.LedgerFires, st.LedgerCaptured, st.LedgerDropped, st.LedgerLost)
	}
	if st.LedgerFires == 0 {
		t.Error("no timer fires folded; fleet did not monitor anything")
	}
	if st.NodeRounds != uint64(f.cfg.Nodes)*f.cfg.Rounds {
		t.Errorf("NodeRounds = %d, want %d", st.NodeRounds, uint64(f.cfg.Nodes)*f.cfg.Rounds)
	}
	if st.Watermark != f.cfg.Rounds {
		t.Errorf("watermark = %d, want %d (all rounds folded)", st.Watermark, f.cfg.Rounds)
	}
	// Faults were actually injected (FaultEvery: 3 over 8 nodes x 2 rounds).
	if st.FaultedRounds == 0 && st.DegradedRounds == 0 {
		t.Log("note: no node round degraded this seed; fault knobs may be too gentle")
	}
}

// TestFleetMaxLeadBoundsShards: with MaxLead 1 a shard can never be more
// than one round past the watermark, whatever the delivery interleaving.
func TestFleetMaxLeadBoundsShards(t *testing.T) {
	cfg := testConfig(4)
	cfg.Rounds = 4
	cfg.MaxLead = 1
	f := New(cfg)
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	st := f.Status()
	if st.Watermark != cfg.Rounds {
		t.Errorf("watermark = %d, want %d", st.Watermark, cfg.Rounds)
	}
	for i, lag := range st.ShardLag {
		if lag > 0 {
			t.Errorf("shard %d still ahead of the watermark after drain: lag %d", i, lag)
		}
	}
}

// TestFleetStopDrains: daemon mode (Rounds 0) runs until Stop, then Wait
// returns with every delivered round folded and no error.
func TestFleetStopDrains(t *testing.T) {
	cfg := testConfig(2)
	cfg.Rounds = 0
	cfg.Nodes = 4
	f := New(cfg)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	// Let it make progress, then drain.
	for f.Status().Watermark < 1 {
		runtime.Gosched()
	}
	f.Stop()
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	st := f.Status()
	if !st.Draining {
		t.Error("status does not report draining after Stop")
	}
	if st.Watermark == 0 {
		t.Error("nothing folded before drain")
	}
	if st.LedgerFires > 0 && !st.LedgerBalanced {
		t.Error("drained fleet left an unbalanced ledger")
	}
}

// TestFleetStartTwice: a second Start is refused, and Run without Rounds
// is refused.
func TestFleetLifecycleErrors(t *testing.T) {
	f := New(testConfig(2))
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err == nil {
		t.Error("second Start accepted")
	}
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := New(Config{Rounds: 0}).Run(); err == nil {
		t.Error("Run without Rounds accepted")
	}
}

// TestFleetVirtualClockAdvances: the fleet trace stamps rounds on a
// monotonically advancing virtual clock (one span per round), so the
// rolling window reads as a timeline, not a pile-up at t=0.
func TestFleetVirtualClockAdvances(t *testing.T) {
	f := New(testConfig(2))
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	snap, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var roundTimes []ktime.Time
	for _, e := range snap.Events {
		if e.Kind == telemetry.KindFleetRound {
			roundTimes = append(roundTimes, e.Time)
		}
	}
	if len(roundTimes) != int(f.cfg.Rounds) {
		t.Fatalf("trace has %d fleet-round events, want %d", len(roundTimes), f.cfg.Rounds)
	}
	if !(roundTimes[0] > 0 && roundTimes[1] > roundTimes[0]) {
		t.Errorf("fleet clock not advancing: round times %v", roundTimes)
	}
}
