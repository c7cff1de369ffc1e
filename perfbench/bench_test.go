package main

import (
	"bytes"
	"encoding/json"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"kleb/internal/telemetry"
)

// heldOutSeed is the seed kept out of the benchmark's tuning; the smoke
// runs check that it passes every invariant as the reference seed does.
const heldOutSeed = 20201016

func TestQuantileNearestRank(t *testing.T) {
	var q telemetry.ExactQuantiles
	for i := 100; i >= 1; i-- {
		q.Observe(uint64(i) * 1e6) // 1..100 ms
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := quantileMs(&q, c.p); got != c.want {
			t.Errorf("p%g = %g ms, want %g", c.p*100, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 values = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values = %g, want 2.5", got)
	}
}

func TestLayerFold(t *testing.T) {
	cases := []struct {
		stack   []string
		layer   string
		bracket bool
	}{
		{[]string{"runtime.memmove", "kleb/internal/cache.(*Cache).Save", "kleb/internal/cpu.(*Core).execute"}, "cache", true},
		{[]string{"kleb/internal/cache.(*Cache).Access", "kleb/internal/cpu.preWarm", "kleb/internal/cpu.(*Core).execute"}, "cache", true},
		{[]string{"kleb/internal/cpu.(*Core).execute", "kleb/internal/kernel.(*Kernel).Run"}, "cpu", false},
		// Helper packages are charged to the layer that called them.
		{[]string{"kleb/internal/ktime.(*Rand).Uint64", "kleb/internal/workload.(*serveSim).arrive"}, "workload", false},
		{[]string{"strconv.AppendUint", "fmt.Fprintf", "kleb/internal/kleb.(*Controller).drain"}, "kleb", false},
		{[]string{"kleb/internal/tools/perfstat.(*Tool).tick", "kleb/internal/kernel.(*Kernel).Run"}, "tools", false},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime", false},
		// The benchmark's own code is no layer.
		{[]string{"runtime.mallocgc", "main.scrapeOnce"}, "", false},
		{nil, "", false},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.layer {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.layer)
		}
		if got := inBracket(c.stack); got != c.bracket {
			t.Errorf("inBracket(%v) = %v, want %v", c.stack, got, c.bracket)
		}
	}
	shares := layerShares([]stackSample{
		{funcs: cases[0].stack, value: 3},
		{funcs: cases[2].stack, value: 1},
		{funcs: cases[7].stack, value: 4},
	})
	if shares["cache"] != 0.375 || shares["cpu"] != 0.125 || shares["bracket"] != 0.375 {
		t.Errorf("shares = %v, want cache 0.375, cpu 0.125, bracket 0.375", shares)
	}
}

// spin burns CPU in its own frame, checking the clock rarely so that most
// profile samples land in spin itself.
//
//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1<<20; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	spin(500 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, s := range samples {
		if s.value <= 0 {
			t.Errorf("sample with value %d", s.value)
		}
		// The package under test is named by its import path.
		if len(s.funcs) > 0 && s.funcs[0] == "kleb/perfbench.spin" {
			found = true
		}
	}
	if !found {
		t.Errorf("no sample has spin as its leaf in %v", samples)
	}
	if _, err := parseProfile(buf.Bytes()[:len(buf.Bytes())/2]); err == nil {
		t.Error("a truncated profile parsed without error")
	}
}

func TestScraperCountsFromDueTime(t *testing.T) {
	const every = 2 * time.Millisecond
	const stall = 20 * time.Millisecond
	var s scraper
	stop := make(chan struct{})
	var once sync.Once
	calls := 0
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.loop(start, every, stop, func() error {
			calls++
			if calls == 3 {
				time.Sleep(stall)
			}
			if calls == 20 {
				once.Do(func() { close(stop) })
			}
			return nil
		})
	}()
	<-done
	if len(s.samples) != 20 {
		t.Fatalf("%d samples, want 20: the loop must issue every due operation", len(s.samples))
	}
	for k, smp := range s.samples {
		if smp.late < 0 || smp.lat < smp.late {
			t.Errorf("sample %d: late %v, latency %v; want 0 <= late <= latency", k, smp.late, smp.lat)
		}
	}
	// The stalled third operation (k = 2) delays the ones due during the
	// stall; their latency counts the wait from their due time.
	if got := s.samples[3].late; got < stall-2*every {
		t.Errorf("operation after the stall started %v late, want >= %v", got, stall-2*every)
	}
	if got := s.samples[3].lat; got < stall-2*every {
		t.Errorf("operation after the stall has latency %v, want >= %v", got, stall-2*every)
	}
	// Back-to-back catch-up: the generator gets back on schedule.
	if last := s.samples[19].late; last >= s.samples[3].late {
		t.Errorf("generator never caught up: last lateness %v >= %v", last, s.samples[3].late)
	}
}

// TestSmoke runs each workload for a second, untraced at the reference seed
// (so the digests are checked) and traced at the held-out seed, and checks
// the result line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds-long runs")
	}
	for _, w := range []string{"overhead-batch", "serve-hf", "fleet-scrape"} {
		for _, c := range []struct {
			seed  uint64
			trace string
			defs  []metricDef
		}{{referenceSeed, "0", endToEnd}, {heldOutSeed, "1", perLayer}} {
			var out, errb bytes.Buffer
			args := []string{"--workload", w, "--seed", strconv.FormatUint(c.seed, 10), "--seconds", "1", "--trace", c.trace}
			if code := run(args, &out, &errb); code != 0 {
				t.Errorf("%s trace %s: exit %d\n%s%s", w, c.trace, code, out.String(), errb.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line %q: %v", w, lines[len(lines)-1], err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, %d of %d failed", w, c.trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(c.defs) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, c.trace, len(res.Metrics), len(c.defs))
			}
			for _, d := range c.defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w, c.trace, d.name, m, d.unit)
				}
				if c.trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w, d.name, m.Value)
				}
			}
		}
	}
}

func TestRejectsUnknownWorkload(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &out, &errb); code == 0 {
		t.Errorf("unknown workload exited 0")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Errorf("unknown workload printed a result: %s", out.String())
	}
}
