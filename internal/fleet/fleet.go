// Package fleet is the aggregation core of klebd: it runs K-LEB across a
// (simulated) fleet of thousands of machines, sharded over long-lived
// workers, and folds every node's telemetry into one live, bounded-memory
// aggregate that HTTP handlers serve mid-run.
//
// The layer preserves the repo's determinism contract under concurrency.
// Shards free-run up to MaxLead rounds ahead of a fold watermark; a round
// is folded only once every shard has delivered it, and folding walks the
// round's nodes in ascending node order. Node seeds derive from (Seed,
// node, round) alone — never from shard count — so the fleet-level
// registry, exposition and trace window are byte-identical at any Shards
// setting (TestFleetAggregateDeterminism pins 1/2/8). Everything
// nondeterministic (wall-clock merge latency, scrape durations, shard lag)
// lives in a separate self-telemetry group rendered as its own `klebd_*`
// exposition section.
//
// Memory stays bounded no matter how long the daemon runs: machines are
// booted per node-round and released once the round's result is copied
// out, so the next round's boot reuses their cache storage (peak live
// machines == Shards; DESIGN.md §11 "Machine storage lifecycle"), the
// trace ring holds at most Retention events, and the watermark backpressure
// caps buffered undelivered rounds at Shards x MaxLead x nodes-per-shard
// results.
package fleet

import (
	"fmt"
	"sync"

	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/session"
	"kleb/internal/telemetry"
)

// Config sizes and seeds a fleet.
type Config struct {
	// Nodes is the number of simulated machines (default 16).
	Nodes int
	// Shards is the number of long-lived shard workers; node i is owned by
	// shard i mod Shards (session.Stripe). Default 4. The fleet aggregate
	// is byte-identical at any value.
	Shards int
	// Seed drives every node run; node (i, round) runs with
	// DeriveSeed(DeriveSeed(Seed, i), round), independent of sharding.
	Seed uint64
	// Rounds bounds the run: each node executes this many monitoring
	// rounds, then the fleet drains. 0 = run until Stop (daemon mode).
	Rounds uint64
	// Period is each node's K-LEB sampling period (default 1ms).
	Period ktime.Duration
	// Limit caps each node run's virtual time (default 50ms).
	Limit ktime.Duration
	// TargetInstr is each node's per-round workload size in instructions
	// (default 2M; nodes vary memory behaviour by seed).
	TargetInstr uint64
	// Retention is the aggregate trace ring capacity in events (default
	// 1<<14). The /trace endpoint serves this rolling window.
	Retention int
	// MaxLead is how many rounds a shard may run ahead of the fold
	// watermark before blocking (default 4). Bounds pending-result memory.
	MaxLead int
	// FaultEvery, when non-zero, injects a seeded fault plan into every
	// node run where (node + round) % FaultEvery == 0 — the fleet's
	// background failure rate. 0 disables injection.
	FaultEvery int
	// ClusterEvery, when non-zero, makes every ClusterEvery-th node a
	// 2-core shared-LLC cluster (machine.Cluster) instead of a monitored
	// single machine, exercising per-core telemetry merge in the fleet
	// path. 0 disables.
	ClusterEvery int
	// Profile is the machine profile to boot (zero value selects Nehalem
	// with deterministic-noise defaults left intact).
	Profile machine.Profile
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 16
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Shards > c.Nodes {
		c.Shards = c.Nodes
	}
	if c.Period == 0 {
		c.Period = ktime.Millisecond
	}
	if c.Limit == 0 {
		c.Limit = 50 * ktime.Millisecond
	}
	if c.TargetInstr == 0 {
		c.TargetInstr = 2_000_000
	}
	if c.Retention <= 0 {
		c.Retention = 1 << 14
	}
	if c.MaxLead <= 0 {
		c.MaxLead = 4
	}
	if c.Profile.Name == "" {
		c.Profile = machine.Nehalem()
	}
	return c
}

// Fleet is one running (or runnable) fleet instance.
type Fleet struct {
	cfg  Config
	agg  *aggregator
	self *selfMetrics

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu      sync.Mutex
	started bool
	runErr  error // guarded by mu
}

// New builds a fleet from cfg (zero fields defaulted, see Config).
func New(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	return &Fleet{
		cfg:  cfg,
		agg:  newAggregator(cfg.Shards, cfg.Retention, cfg.MaxLead),
		self: newSelfMetrics(cfg.Shards),
		stop: make(chan struct{}),
	}
}

// Config returns the resolved configuration.
func (f *Fleet) Config() Config { return f.cfg }

// Start launches the shard workers. It returns immediately; use Wait for
// completion (bounded runs) or Stop + Wait for daemon-mode drain.
func (f *Fleet) Start() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return fmt.Errorf("fleet: already started")
	}
	f.started = true
	for s := 0; s < f.cfg.Shards; s++ {
		nodes := session.Stripe(f.cfg.Nodes, f.cfg.Shards, s)
		f.wg.Add(1)
		go f.runShard(s, nodes)
	}
	return nil
}

// Stop asks every shard to finish its current round and exit. Delivered
// complete rounds keep folding during the drain; partially delivered
// trailing rounds are discarded (they were never part of the aggregate).
// Safe to call multiple times and before Start.
func (f *Fleet) Stop() {
	f.stopOnce.Do(func() {
		close(f.stop)
		f.agg.closeFleet()
	})
}

// Wait blocks until every shard has exited and all complete rounds are
// folded, then returns the first node-run infrastructure error (nil in any
// healthy run — node-level faults degrade, they do not error).
func (f *Fleet) Wait() error {
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.runErr
}

// Run is Start + Wait for bounded (Rounds > 0) runs.
func (f *Fleet) Run() error {
	if f.cfg.Rounds == 0 {
		return fmt.Errorf("fleet: Run needs Rounds > 0; use Start/Stop/Wait for daemon mode")
	}
	if err := f.Start(); err != nil {
		return err
	}
	return f.Wait()
}

// fail records the first infrastructure error and stops the fleet.
func (f *Fleet) fail(err error) {
	f.mu.Lock()
	if f.runErr == nil {
		f.runErr = err
	}
	f.mu.Unlock()
	f.Stop()
}

// stopping reports whether Stop has been called.
func (f *Fleet) stopping() bool {
	select {
	case <-f.stop:
		return true
	default:
		return false
	}
}

// runShard is one long-lived shard worker: it owns the nodes of its
// stripe and runs them in ascending order every round, delivering each
// completed round to the aggregator.
func (f *Fleet) runShard(shard int, nodes []int) {
	defer f.wg.Done()
	for round := uint64(0); ; round++ {
		if f.cfg.Rounds > 0 && round >= f.cfg.Rounds {
			return
		}
		// Backpressure: never run more than MaxLead rounds ahead of the
		// fold watermark. Returns false once the fleet is stopping.
		if !f.agg.waitTurn(round) {
			return
		}
		if f.stopping() {
			return
		}
		results := make([]nodeResult, 0, len(nodes))
		for _, node := range nodes {
			results = append(results, f.runNode(node, round))
		}
		f.agg.deliver(shard, round, results, f.self)
	}
}

// Snapshot returns a consistent copy of the deterministic fleet aggregate.
func (f *Fleet) Snapshot() (*telemetry.Snapshot, error) {
	return f.agg.snapshot()
}

// Status returns the nondeterministic operational view (/fleetz).
func (f *Fleet) Status() Status {
	st := f.agg.status()
	st.Nodes = f.cfg.Nodes
	st.Rounds = f.cfg.Rounds
	st.Draining = f.stopping()
	f.self.fill(&st)
	return st
}

// Status is the operational state served by /fleetz.
type Status struct {
	Nodes    int    `json:"nodes"`
	Shards   int    `json:"shards"`
	Rounds   uint64 `json:"rounds,omitempty"`
	Draining bool   `json:"draining"`

	// Watermark is the number of fully folded rounds; ShardRounds the
	// rounds each shard has delivered; ShardLag each shard's lead over the
	// watermark (delivered - folded).
	Watermark   uint64   `json:"watermark"`
	ShardRounds []uint64 `json:"shard_rounds"`
	ShardLag    []uint64 `json:"shard_lag"`

	// Fleet accounting folded so far (deterministic).
	NodeRounds     uint64 `json:"node_rounds"`
	DegradedRounds uint64 `json:"degraded_rounds"`
	FaultedRounds  uint64 `json:"faulted_rounds"`
	LedgerFires    uint64 `json:"ledger_fires"`
	LedgerCaptured uint64 `json:"ledger_captured"`
	LedgerDropped  uint64 `json:"ledger_dropped"`
	LedgerLost     uint64 `json:"ledger_lost"`
	LedgerBalanced bool   `json:"ledger_balanced"`
	TraceEvents    int    `json:"trace_events"`
	TraceEvicted   uint64 `json:"trace_evicted"`

	// Self-telemetry (wall-clock, nondeterministic).
	UptimeSeconds   float64 `json:"uptime_seconds"`
	RunsIngested    uint64  `json:"runs_ingested"`
	SamplesIngested uint64  `json:"samples_ingested"`
	SamplesPerSec   float64 `json:"samples_per_sec"`
	MergeP50Ns      uint64  `json:"merge_p50_ns"`
	MergeP99Ns      uint64  `json:"merge_p99_ns"`
	Scrapes         uint64  `json:"scrapes"`
	ScrapeP99Ns     uint64  `json:"scrape_p99_ns"`
}
