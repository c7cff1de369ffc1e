// Every study's Check holds its paper claims, and TestArtifactGoldens runs
// each Check at 1, 2 and 8 workers. The tests here show that no Check is
// vacuous: each runs one study at goldenParams, requires its claims to
// hold, breaks the result the way one claim forbids, and requires Check to
// name that claim. Rows are broken by index; the expected message names
// the row, so a reordered result fails the test rather than passing it.
package experiments

import (
	"strings"
	"testing"

	"kleb/internal/isa"
	"kleb/internal/ktime"
	"kleb/internal/workload"
)

// studyResult runs the registry entry name at goldenParams and requires
// every claim to hold before the test breaks one.
func studyResult[R Result](t *testing.T, name string) R {
	t.Helper()
	a, ok := Lookup(name)
	if !ok {
		t.Fatalf("no registry entry %q", name)
	}
	res, err := a.Run(goldenParams) //klebvet:allow emitguard -- every Registry entry sets Run
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatalf("%s fails its claims before the break: %v", name, err)
	}
	return res.(R)
}

// wantClaim requires res.Check to report a violation containing want.
func wantClaim(t *testing.T, res Result, want string) {
	t.Helper()
	if err := res.Check(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Check() = %v, want a violation containing %q", err, want)
	}
}

// The overhead study's rows follow AllTools: kleb, perf-stat, perf-record,
// papi, limit.

func TestTableIIOverheadOrdering(t *testing.T) {
	res := studyResult[*OverheadResult](t, "table2")
	res.Rows[0].Mean, res.Rows[1].Mean = res.Rows[1].Mean, res.Rows[0].Mean
	wantClaim(t, res, "overhead ordering broken: kleb=5.34")
}

func TestTableIIBaselineAboutTwoSeconds(t *testing.T) {
	res := studyResult[*OverheadResult](t, "table2")
	res.BaselineMean = 4 * ktime.Second
	wantClaim(t, res, "triple-loop baseline 4s")
}

func TestTableIISampleCountsComparable(t *testing.T) {
	res := studyResult[*OverheadResult](t, "table2")
	res.Rows[3].Samples = res.Rows[2].Samples
	wantClaim(t, res, "papi collected 1120 samples")
}

func TestFig8KLEBHasSmallestSpread(t *testing.T) {
	res := studyResult[*OverheadResult](t, "table2")
	kleb, papi := &res.Rows[0], &res.Rows[3]
	kleb.Normalized, kleb.Box.Median = papi.Normalized, papi.Box.Median
	wantClaim(t, res, "K-LEB normalized-time stddev")
	wantClaim(t, res, "not below papi median")
}

func TestTableIIIShortWorkload(t *testing.T) {
	res := studyResult[*OverheadResult](t, "table3")
	res.Rows[3].Mean = res.Rows[1].Mean
	res.Rows[4].Unsupported = ""
	wantClaim(t, res, "should dwarf perf stat")
	wantClaim(t, res, "LiMiT should be n/a")
}

func TestTableILinpackGFLOPS(t *testing.T) {
	res := studyResult[*LinpackResult](t, "table1")
	res.Rows[1].LossPct, res.Rows[2].LossPct = res.Rows[2].LossPct, res.Rows[1].LossPct
	wantClaim(t, res, "loss ordering")
}

func TestFig4LinpackPhases(t *testing.T) {
	res := studyResult[*LinpackResult](t, "table1")
	muls := res.Series[isa.EvMulOps]
	copy(muls[:len(muls)/10], muls[len(muls)/2:])
	wantClaim(t, res, "ARITH.MUL should be flat before the solve")
}

func TestFig5DockerMPKIClasses(t *testing.T) {
	res := studyResult[*DockerResult](t, "fig5")
	ruby := &res.Rows[0]
	ruby.MPKI, ruby.Class = 100, workload.MemoryIntensive
	wantClaim(t, res, "MPKI tier ordering violated on "+ruby.Machine)
	wantClaim(t, res, "ruby MPKI 100.00, paper says <1")
	wantClaim(t, res, "ruby on "+ruby.Machine+": classified memory-intensive")
}

func TestFig6And7Meltdown(t *testing.T) {
	res := studyResult[*MeltdownResult](t, "fig6")
	res.Victim, res.Attack = res.Attack, res.Victim
	wantClaim(t, res, "LLC misses: attack")
}

func TestFig9CountAccuracy(t *testing.T) {
	res := studyResult[*AccuracyResult](t, "fig9")
	res.Rows[0].MaxPct, res.Rows[2].MaxPct = 0.5, 0.5
	wantClaim(t, res, "perf stat max diff 0.50000%")
	wantClaim(t, res, "papi max diff 0.500%")
}

func TestTimerGranularity(t *testing.T) {
	res := studyResult[*TimerResult](t, "timers")
	res.Rows[4].AchievedAvg = res.Rows[6].AchievedAvg
	wantClaim(t, res, "hrtimer at 100µs achieved 10ms")
}

func TestRateSweep(t *testing.T) {
	res := studyResult[*SweepResult](t, "sweep")
	res.Rows[0].OverheadPct, res.Rows[5].EffectivePeriod = 0, res.Rows[5].RequestedPeriod
	wantClaim(t, res, "K-LEB overhead should rise with rate")
	wantClaim(t, res, "perf stat effective period 100µs")
}

func TestBufferAblation(t *testing.T) {
	res := studyResult[*BufferAblationResult](t, "buffers")
	res.Rows[0].Dropped, res.Rows[0].CoveragePct = 0, 100
	wantClaim(t, res, "a 64-sample ring")
	wantClaim(t, res, "coverage should grow with ring size")
}

func TestDrainAblation(t *testing.T) {
	res := studyResult[*DrainAblationResult](t, "drains")
	res.Rows[0].OverheadPct, res.Rows[1].Dropped = 0, 7
	wantClaim(t, res, "eager drains should cost more")
	wantClaim(t, res, "keep the pause dormant at 50ms drains, dropped 7 periods")
}

func TestColocationInterference(t *testing.T) {
	res := studyResult[*ColocateResult](t, "colocate")
	for i, c := range res.Cells {
		if c.Image == "mysql" && c.Neighbour == "apache" {
			res.Cells[i].Slowdown = 1
		}
	}
	wantClaim(t, res, "mysql|apache 1.00x")
	wantClaim(t, res, "interference ordering broken")
}

func TestCharacterizationFingerprints(t *testing.T) {
	res := studyResult[*CharacterizeResult](t, "suite")
	res.Rows[4].IPC = res.Rows[1].IPC
	wantClaim(t, res, "IPC separation: crypto 0.04")
}

func TestPlacementRule(t *testing.T) {
	res := studyResult[*PlacementResult](t, "placement")
	ps := res.Placements
	ps[0].Makespan, ps[1].Makespan = ps[1].Makespan, ps[0].Makespan
	wantClaim(t, res, "mixed pairing should clearly win")
}

func TestContentionDetection(t *testing.T) {
	res := studyResult[*ContentionResult](t, "contention")
	res.DetectedAt, res.AfterMPKI = res.NeighbourStart, res.BeforeMPKI
	wantClaim(t, res, "precedes the neighbour")
	wantClaim(t, res, "no contention visible")
}

// The multiplex sweep's rows are its mixes of 2, 4, 6 and 8 events.
func TestMultiplexCheck(t *testing.T) {
	res := studyResult[*MultiplexResult](t, "multiplex")
	for i := range res.Rows[2].Cells {
		res.Rows[2].Cells[i].ErrPct = 0
	}
	wantClaim(t, res, "mix of 6: scaled estimates match exact counts exactly")
	res.Rows = res.Rows[:2]
	wantClaim(t, res, "no oversubscribed mix")
}

func TestTailLatCheck(t *testing.T) {
	res := studyResult[*TailLatResult](t, "taillat")
	open, closed := &res.Scenarios[0], &res.Scenarios[1]
	for i := range open.Rows {
		if open.Rows[i].Tool == string(KLEB) {
			open.Rows[i].DeltaP99 = 0
		}
	}
	for i := range closed.Rows {
		if closed.Rows[i].Tool == "bare" {
			closed.Rows[i].Completed = 0
		}
	}
	wantClaim(t, res, "open-loop: K-LEB Δp99 = 0ns, want positive")
	wantClaim(t, res, "closed-loop: missing or empty bare baseline")
	res.Scenarios = res.Scenarios[:1]
	wantClaim(t, res, "1 scenarios, want open- and closed-loop")
}
