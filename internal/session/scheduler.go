package session

import (
	"errors"
	"runtime"
	"sync"

	"kleb/internal/telemetry"
)

// Scheduler executes batches of independent Specs across a fixed worker
// pool. Every run in a batch is a self-contained simulation whose outcome
// depends only on its Spec (most importantly its seed), so results are
// bit-identical regardless of worker count or completion order; the
// returned slice is always index-ordered to match the input.
type Scheduler struct {
	// Workers is the pool size; 0 or negative selects GOMAXPROCS.
	Workers int
	// Telemetry, when set, is the batch-level sink: each Spec lacking its
	// own sink gets a private metrics-only sub-sink whose registry is merged
	// here after the batch (merges are commutative, so the aggregate is
	// worker-count independent), and one run-completion trace event is
	// recorded per Spec in index order. Nil falls back to the process-wide
	// sink installed with SetBatchTelemetry.
	Telemetry *telemetry.Sink
}

// Outcome pairs one Spec's result with its batch position. A failed run
// carries its error here instead of aborting the rest of the batch.
type Outcome struct {
	// Index is the position of the originating Spec in the batch.
	Index int
	// Run is the result (nil when Err is set).
	Run *Result
	// Err is the run's failure, if any.
	Err error
}

// batchMu serializes merges into the process-wide batch sink; batchSink is
// that sink (see SetBatchTelemetry).
var (
	batchMu   sync.Mutex
	batchSink *telemetry.Sink // guarded by batchMu
)

// SetBatchTelemetry installs a process-wide batch sink that every Scheduler
// without an explicit Telemetry field aggregates into. The binaries use it
// to observe experiment runners that construct their own Schedulers. Nil
// uninstalls.
func SetBatchTelemetry(s *telemetry.Sink) {
	batchMu.Lock()
	batchSink = s
	batchMu.Unlock()
}

// BatchTelemetry returns the process-wide batch sink (nil when unset).
func BatchTelemetry() *telemetry.Sink {
	batchMu.Lock()
	defer batchMu.Unlock()
	return batchSink
}

// batch resolves the effective batch sink for this scheduler.
func (s Scheduler) batch() *telemetry.Sink {
	if s.Telemetry != nil {
		return s.Telemetry
	}
	return BatchTelemetry()
}

// workers resolves the configured pool size.
func (s Scheduler) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// minRunsPerWorker is the striping threshold: below it, the per-goroutine
// setup and the load imbalance of a static assignment swamp any overlap
// (before this bound existed, the sweep's 4-run batches ran slower striped
// over a pool than serially). `go test -bench Artifacts -cpu 1,2 .` times
// every artifact serially and on two workers.
const minRunsPerWorker = 2

// poolSize resolves the pool actually used for an n-run batch: the
// configured worker count, clamped so every worker receives at least
// minRunsPerWorker runs. Both ForEach's fan-out and Run's worker-slot
// telemetry derive from this one function, so the reported index-to-worker
// mapping stays truthful when the clamp engages. Results are seed-determined
// and bit-identical at any pool size, so the clamp is purely a scheduling
// decision.
func (s Scheduler) poolSize(n int) int {
	w := s.workers()
	if max := n / minRunsPerWorker; w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes every Spec in the batch over the worker pool and returns
// the outcomes in Spec order.
func (s Scheduler) Run(specs []Spec) []Outcome {
	batch := s.batch()
	var subs []*telemetry.Sink
	if batch != nil {
		subs = make([]*telemetry.Sink, len(specs))
	}
	out := make([]Outcome, len(specs))
	s.ForEach(len(specs), func(i int) {
		spec := specs[i]
		if subs != nil && spec.Telemetry == nil {
			subs[i] = telemetry.MetricsOnly()
			spec.Telemetry = subs[i]
		}
		r, err := Run(spec)
		out[i] = Outcome{Index: i, Run: r, Err: err}
	})
	if batch != nil {
		w := s.poolSize(len(specs))
		batchMu.Lock()
		for i := range specs {
			sub := subs[i]
			if sub == nil {
				sub = specs[i].Telemetry
			}
			// A label-dimension conflict means run i's sink disagrees with
			// the batch taxonomy; surface it on that run's outcome instead
			// of silently blending its counts.
			if err := batch.Merge(sub); err != nil {
				out[i].Err = errors.Join(out[i].Err, err)
			}
			// Under ForEach's striped assignment, spec i ran on worker i mod w.
			slot := 0
			if w > 1 {
				slot = i % w
			}
			batch.RunDone(i, slot, out[i].Err != nil)
		}
		batchMu.Unlock()
	}
	return out
}

// ForEach invokes fn(i) for every i in [0, n) across the worker pool and
// returns once all invocations complete. fn is called concurrently from
// distinct goroutines and must only touch index-private state (the pattern
// every experiment runner follows: write results into slot i of a
// preallocated slice). Cluster experiments and the facade fan out through
// this when their jobs are not plain Specs.
//
// The assignment is static and striped: worker g executes indices g, g+w,
// g+2w, ... in order, with w the clamped pool from poolSize (small batches
// run serial or on a reduced pool; see minRunsPerWorker). Striping keeps
// the mapping from index to worker a pure function of (n, Workers) — no
// channel race decides placement — which is what lets batch telemetry
// report a truthful, reproducible worker slot per run.
func (s Scheduler) ForEach(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	w := s.poolSize(n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += w {
				fn(i)
			}
		}(g)
	}
	wg.Wait()
}

// Stripe returns the indices of [0, n) that ForEach's striped assignment
// gives worker g of w: g, g+w, g+2w, ... Exposed so layers that manage
// their own long-lived workers (the fleet daemon's shards) reuse the exact
// placement function instead of re-deriving it, keeping any reported
// index-to-worker mapping truthful at every worker count.
func Stripe(n, w, g int) []int {
	if n <= 0 || w <= 0 || g < 0 || g >= w {
		return nil
	}
	out := make([]int, 0, (n-g+w-1)/w)
	for i := g; i < n; i += w {
		out = append(out, i)
	}
	return out
}

// FirstErr returns the first failed outcome's error, for callers that
// treat any failure as fatal.
func FirstErr(outs []Outcome) error {
	for _, o := range outs {
		if o.Err != nil {
			return o.Err
		}
	}
	return nil
}

// DeriveSeed deterministically derives the i'th run seed from a base seed
// using a SplitMix64 finalizer, so neighbouring indices yield decorrelated
// noise streams and a batch's seeds never depend on worker count or
// completion order. DeriveSeed(base, 0) != base, so baseline and derived
// runs do not collide.
func DeriveSeed(base uint64, i int) uint64 {
	z := base + 0x9e3779b97f4a7c15*(uint64(i)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
