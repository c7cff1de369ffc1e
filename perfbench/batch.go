package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"time"

	"kleb/internal/isa"
	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/session"
	"kleb/internal/telemetry"
)

// tally is what one measured window observed.
type tally struct {
	attempted, failed int
	// runs counts completed simulated runs (node rounds on fleet-scrape) and
	// instr their simulated instructions, from the generated scripts.
	runs  uint64
	instr uint64
	// simNs sums the completed runs' simulated elapsed time.
	simNs uint64
	// lat holds one host latency per operation, in ns: Boot→Drain of a
	// monitored run, or a scrape from its due time. Bare runs are left out:
	// they exist to size and compare the monitored ones, and as a cheap
	// quarter of each batch they would put the median on the edge between
	// two clusters of run costs.
	lat telemetry.ExactQuantiles
	// late is how far behind its schedule the open-loop scraper started each
	// scrape, in ns (fleet-scrape only).
	late    telemetry.ExactQuantiles
	batches []batchStat
	notes   []string
	// digests are the first batch's run digests in batch order (the final
	// exposition's on fleet-scrape), as reference.json records them.
	digests []string
	// layer holds workload-specific per-layer values (model.*, fleet.*).
	layer map[string]float64
}

// batchStat is what one batch (one fleet on fleet-scrape) completed and
// how long it took.
type batchStat struct {
	runs, instr uint64
	wall        time.Duration
}

// repeat runs batch until deadline, at least once, timing each.
func (t *tally) repeat(deadline time.Time, batch func()) {
	for {
		b0, runs, instr := time.Now(), t.runs, t.instr
		batch()
		t.batches = append(t.batches, batchStat{runs: t.runs - runs, instr: t.instr - instr, wall: time.Since(b0)})
		if !time.Now().Before(deadline) {
			return
		}
	}
}

// rates returns the median over batches of completed runs and of simulated
// Ginstr per host second. A median keeps a batch slowed by a burst of
// outside load from moving the figure.
func (t *tally) rates() (runsPerSec, ginstrPerSec float64) {
	var runs, instr []float64
	for _, b := range t.batches {
		runs = append(runs, float64(b.runs)/b.wall.Seconds())
		instr = append(instr, float64(b.instr)/b.wall.Seconds()/1e9)
	}
	return median(runs), median(instr)
}

// maxNotes bounds how many failure messages a window keeps.
const maxNotes = 8

func (t *tally) fail(n int, format string, args ...any) {
	t.failed += n
	if len(t.notes) < maxNotes {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// mergeChecks folds o's operation counts and failures into t, so that the
// result counts every checked operation, timed or not.
func (t *tally) mergeChecks(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, n := range o.notes {
		if len(t.notes) < maxNotes {
			t.notes = append(t.notes, n)
		}
	}
}

// job is one simulated run of a batch.
type job struct {
	spec session.Spec
	// program builds the run's target; the batch wraps it as the Spec's
	// NewTarget so the program can be inspected after the run.
	program func() kernel.Program
	// instr is the target script's instruction count.
	instr uint64
	// check verifies the finished run's invariants and writes its simulated
	// outputs to the digest.
	check func(r *session.Result, prog kernel.Program, d io.Writer) error
}

// runOutcome is one job's result within a phase.
type runOutcome struct {
	res    *session.Result
	digest uint64
	lat    time.Duration
	err    error
}

// runJob drives one job through the session lifecycle stage by stage, so
// each stage can be timed, and checks its outputs.
func runJob(j job, tr *tracer, phaseStart time.Time) runOutcome {
	run := tr.id()
	var prog kernel.Program
	spec := j.spec
	spec.NewTarget = func() kernel.Program {
		_ = tr.do("session.NewTarget", run, func() error { prog = j.program(); return nil })
		return prog
	}
	spec.Telemetry = tr.sinkFor()
	s := session.New(spec)
	t0 := time.Now()
	err := tr.do("session.Boot", run, func() error { _, err := s.Boot(); return err })
	if err == nil {
		err = tr.do("session.Attach", run, s.Attach)
	}
	if err == nil {
		err = tr.do("session.Drive", run, s.Drive)
	}
	var res *session.Result
	if err == nil {
		_ = tr.do("session.Drain", run, func() error { res = s.Drain(); return nil })
	}
	end := time.Now()
	tr.add(run, 0, "run", t0, end)
	tr.runDone(spec.Telemetry, t0.Sub(phaseStart))
	out := runOutcome{res: res, lat: end.Sub(t0), err: err}
	if err != nil {
		return out
	}
	h := fnv.New64a()
	writeResultDigest(h, res)
	out.err = j.check(res, prog, h)
	out.digest = h.Sum64()
	return out
}

// writeResultDigest writes every simulated output of a run that the tools
// report: elapsed and CPU time, whole-run totals, the sample count and the
// tool's period ledger.
func writeResultDigest(w io.Writer, r *session.Result) {
	fmt.Fprintf(w, "elapsed=%d user=%d kern=%d\n", r.Elapsed, r.TargetUser, r.TargetKern)
	m := r.Result
	evs := make([]isa.Event, 0, len(m.Totals))
	for ev := range m.Totals {
		evs = append(evs, ev)
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i] < evs[j] })
	for _, ev := range evs {
		fmt.Fprintf(w, "total %v=%d scale=%g\n", ev, m.Totals[ev], m.Scale[ev])
	}
	fmt.Fprintf(w, "samples=%d count=%d estimated=%v\n", len(m.Samples), sampleCount(r), m.Estimated)
	fmt.Fprintf(w, "ledger=%d/%d/%d/%d degraded=%v\n", m.Fires, m.Captured, m.Dropped, m.LostToFault, m.Degraded)
}

// sampleCount is the number of samples a tool collected; perf record keeps
// its samples per event rather than as rows.
func sampleCount(r *session.Result) int {
	if rt, ok := r.Tool.(interface{ SampleCount() int }); ok {
		return rt.SampleCount()
	}
	return len(r.Result.Samples)
}

// checkLedger verifies the period-conservation ledger every tool reports:
// each timer fire was captured, dropped to a full ring, or lost to a fault.
func checkLedger(r *session.Result) error {
	m := r.Result
	if m.Fires != m.Captured+m.Dropped+m.LostToFault {
		return fmt.Errorf("%s ledger unbalanced: fires %d != captured %d + dropped %d + lost %d",
			m.Tool, m.Fires, m.Captured, m.Dropped, m.LostToFault)
	}
	return nil
}

// phase runs jobs over a session.Scheduler pool of workers and accounts
// their outcomes into t. Results stay referenced until the caller drops
// them, as they do for a Scheduler.Run caller, so the heap holds a whole
// batch of machines at its peak.
func phase(jobs []job, workers int, tr *tracer, t *tally) []runOutcome {
	outs := make([]runOutcome, len(jobs))
	start := time.Now()
	session.Scheduler{Workers: workers}.ForEach(len(jobs), func(i int) {
		outs[i] = runJob(jobs[i], tr, start)
	})
	wall := time.Since(start)
	var busy time.Duration
	for i, o := range outs {
		busy += o.lat
		t.attempted++
		if o.err != nil {
			t.fail(1, "run %d (%s): %v", i, jobs[i].spec.TargetName, o.err)
			continue
		}
		t.runs++
		t.instr += jobs[i].instr
		t.simNs += uint64(o.res.Elapsed)
		if jobs[i].spec.NewTool != nil {
			t.lat.Observe(uint64(o.lat))
		}
	}
	tr.phaseDone(busy, wall, workers)
	return outs
}

// compareDigests checks a batch's run digests against the reference for
// the default seed (ref nil for any other seed).
func compareDigests(outs []runOutcome, ref []string, t *tally) {
	if t.digests == nil {
		for _, o := range outs {
			t.digests = append(t.digests, hexDigest(o.digest))
		}
	}
	if ref == nil {
		return
	}
	if len(ref) != len(outs) {
		t.fail(len(outs), "reference has %d digests, batch has %d runs", len(ref), len(outs))
		return
	}
	for i, o := range outs {
		if o.err == nil && hexDigest(o.digest) != ref[i] {
			t.fail(1, "run %d: digest %s, reference %s", i, hexDigest(o.digest), ref[i])
		}
	}
}

func hexDigest(d uint64) string { return fmt.Sprintf("%016x", d) }

// pointsFor sizes the source-instrumenting tools' strategic-point count to
// what a timer tool at period collects over the bare run, as the overhead
// study does.
func pointsFor(bare, period ktime.Duration) int {
	if n := int(bare / period); n > 1 {
		return n
	}
	return 1
}
