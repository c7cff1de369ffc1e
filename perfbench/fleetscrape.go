package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"kleb/internal/fleet"
	"kleb/internal/telemetry"
)

// fleetScrape runs bounded in-process fleets back to back while an
// open-loop scraper reads /metrics through Fleet.Handler at a fixed rate.
type fleetScrape struct {
	ref []string

	// cfg is the fleet every iteration runs; next is the fleet built by
	// setup, used by the first iteration.
	cfg  fleet.Config
	next *fleet.Fleet
	// scrapeEvery is the open-loop scrape interval.
	scrapeEvery time.Duration
}

func (w *fleetScrape) setup(seed uint64) error {
	cfg := w.cfg
	cfg.Seed = seed
	w.next = fleet.New(cfg)
	w.cfg = w.next.Config()
	if w.cfg.Rounds == 0 {
		return fmt.Errorf("fleet-scrape: a bounded fleet needs Rounds > 0")
	}
	return nil
}

// fleetInstr is the simulated instructions of one fleet run: every node
// runs TargetInstr per round, on both cores for a cluster node.
func fleetInstr(cfg fleet.Config) uint64 {
	var cores uint64
	for n := 0; n < cfg.Nodes; n++ {
		if cfg.ClusterEvery > 0 && n%cfg.ClusterEvery == 0 {
			cores += 2
		} else {
			cores++
		}
	}
	return cores * cfg.TargetInstr * cfg.Rounds
}

// scrapeTarget is the fleet the scraper currently reads.
type scrapeTarget struct {
	f *fleet.Fleet
	h http.Handler
}

func (w *fleetScrape) run(deadline time.Time, tr *tracer) *tally {
	t := &tally{}
	f := w.next
	w.next = nil
	if f == nil {
		f = fleet.New(w.cfg)
	}
	var cur atomic.Pointer[scrapeTarget]
	cur.Store(&scrapeTarget{f: f, h: f.Handler()})
	stop := make(chan struct{})
	done := make(chan struct{})
	var scr scraper
	go func() {
		defer close(done)
		scr.loop(time.Now(), w.scrapeEvery, stop, func() error { return scrapeOnce(cur.Load(), tr, &scr) })
	}()
	t.repeat(deadline, func() {
		if f == nil {
			f = fleet.New(w.cfg)
			cur.Store(&scrapeTarget{f: f, h: f.Handler()})
		}
		w.finishFleet(f, tr, t)
		f = nil
	})
	close(stop)
	<-done
	t.attempted += len(scr.samples)
	for _, s := range scr.samples {
		t.late.Observe(uint64(s.late))
		if s.err != nil {
			t.fail(1, "scrape: %v", s.err)
			continue
		}
		t.lat.Observe(uint64(s.lat))
	}
	if t.layer == nil {
		t.layer = map[string]float64{}
	}
	t.layer["bench.scrape_late_ms"] = quantileMs(&t.late, 0.99)
	if tr != nil {
		t.layer["fleet.shard_lag_max"] = float64(scr.lagMax.Load())
	}
	return t
}

// finishFleet runs one fleet to completion and checks its ledger, its node
// count and the digest of its final deterministic exposition.
func (w *fleetScrape) finishFleet(f *fleet.Fleet, tr *tracer, t *tally) {
	cfg := f.Config()
	nodeRounds := cfg.Nodes * int(cfg.Rounds)
	t.attempted += nodeRounds
	if err := f.Run(); err != nil {
		t.fail(nodeRounds, "fleet: %v", err)
		return
	}
	st := f.Status()
	snap, err := f.Snapshot()
	if err != nil {
		t.fail(nodeRounds, "fleet snapshot: %v", err)
		return
	}
	var expo bytes.Buffer
	if err := snap.WritePrometheus(&expo); err != nil {
		t.fail(nodeRounds, "fleet exposition: %v", err)
		return
	}
	h := fnv.New64a()
	h.Write(expo.Bytes())
	if t.digests == nil {
		t.digests = []string{hexDigest(h.Sum64())}
	}
	switch {
	case !st.LedgerBalanced:
		t.fail(nodeRounds, "fleet ledger unbalanced: fires %d != captured %d + dropped %d + lost %d",
			st.LedgerFires, st.LedgerCaptured, st.LedgerDropped, st.LedgerLost)
		return
	case st.NodeRounds != uint64(nodeRounds):
		t.fail(nodeRounds, "fleet folded %d node rounds, want %d", st.NodeRounds, nodeRounds)
		return
	case w.ref != nil && hexDigest(h.Sum64()) != w.ref[0]:
		t.fail(nodeRounds, "fleet exposition digest %s, reference %s", hexDigest(h.Sum64()), w.ref[0])
		return
	}
	if err := telemetry.LintExposition(&expo); err != nil {
		t.fail(nodeRounds, "fleet exposition: %v", err)
		return
	}
	t.runs += uint64(nodeRounds)
	t.instr += fleetInstr(cfg)
	reg := snap.Registry
	var stageNs uint64
	for _, l := range reg.StageNs.Labels() {
		stageNs += reg.StageNs.Get(l)
	}
	t.simNs += stageNs
	tr.mergeRegistry(reg, int(reg.FleetNodes.Value()))
	t.layer = map[string]float64{
		"fleet.merge_p99_ms":   float64(st.MergeP99Ns) / 1e6,
		"fleet.degraded_ratio": float64(st.DegradedRounds) / float64(st.NodeRounds),
		"model.sim_s_per_run":  float64(stageNs) / 1e9 / float64(monitoredNodes(cfg)*int(cfg.Rounds)),
	}
}

// monitoredNodes counts the fleet's single-machine K-LEB nodes; only they
// run a session whose lifecycle stages the aggregate records.
func monitoredNodes(cfg fleet.Config) int {
	n := cfg.Nodes
	if cfg.ClusterEvery > 0 {
		n -= (cfg.Nodes + cfg.ClusterEvery - 1) / cfg.ClusterEvery
	}
	return n
}

// scrapeOnce serves one /metrics request and validates the response. The
// traced run also times the snapshot and the encoding on their own.
func scrapeOnce(cur *scrapeTarget, tr *tracer, scr *scraper) error {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	_ = tr.do("fleet.Handler.ServeHTTP", 0, func() error { cur.h.ServeHTTP(rec, req); return nil })
	if rec.Code != http.StatusOK {
		return fmt.Errorf("/metrics status %d", rec.Code)
	}
	if err := telemetry.LintExposition(rec.Body); err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	if tr == nil {
		return nil
	}
	var snap *telemetry.Snapshot
	err := tr.do("fleet.Snapshot", 0, func() (err error) { snap, err = cur.f.Snapshot(); return err })
	if err != nil {
		return err
	}
	if err := tr.do("telemetry.Snapshot.WritePrometheus", 0, func() error { return snap.WritePrometheus(io.Discard) }); err != nil {
		return err
	}
	for _, lag := range cur.f.Status().ShardLag {
		for {
			old := scr.lagMax.Load()
			if lag <= old || scr.lagMax.CompareAndSwap(old, lag) {
				break
			}
		}
	}
	return nil
}

// scrapeSample is one open-loop scrape: how late it started against its due
// time, and its latency measured from the due time.
type scrapeSample struct {
	late, lat time.Duration
	err       error
}

// scraper is an open-loop load generator: the k-th operation is due at
// start + k·every whatever happened to earlier ones, so a stall delays
// every operation queued behind it and that wait counts in their latency.
type scraper struct {
	samples []scrapeSample
	lagMax  atomic.Uint64
}

// loop issues op on schedule until stop is closed. It never skips a due
// operation: after a stall it issues the backlog back to back.
func (s *scraper) loop(start time.Time, every time.Duration, stop <-chan struct{}, op func() error) {
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * every)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		began := time.Now()
		err := op()
		s.samples = append(s.samples, scrapeSample{late: began.Sub(due), lat: time.Since(due), err: err})
	}
}
