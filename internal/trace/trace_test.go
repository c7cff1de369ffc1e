package trace

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"kleb/internal/isa"
	"kleb/internal/ktime"
	"kleb/internal/monitor"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Errorf("summary %+v", s)
	}
	// Sample stddev of this classic set is ≈2.138.
	if math.Abs(s.Stddev-2.138) > 0.01 {
		t.Errorf("stddev %f", s.Stddev)
	}
	if Summarize(nil) != (Stats{}) {
		t.Error("empty input should give zero stats")
	}
	one := Summarize([]float64{3})
	if one.Mean != 3 || one.Stddev != 0 {
		t.Errorf("singleton: %+v", one)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%.2f) = %f, want %f", c.q, got, c.want)
		}
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.3); math.Abs(got-3) > 1e-9 {
		t.Errorf("interpolated quantile %f", got)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
	if Median(xs) != 3 {
		t.Error("median")
	}
	// Quantile must not mutate its input.
	unsorted := []float64{3, 1, 2}
	Quantile(unsorted, 0.5)
	if unsorted[0] != 3 {
		t.Error("Quantile sorted the caller's slice")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	prop := func(raw []uint16, qa, qb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		a := float64(qa) / 255
		b := float64(qb) / 255
		qlo, qhi := math.Min(a, b), math.Max(a, b)
		return Quantile(xs, qlo) <= Quantile(xs, qhi)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBoxPlot(t *testing.T) {
	xs := []float64{1.0, 1.01, 1.02, 1.03, 1.04, 1.05, 5.0} // one wild outlier
	b := BoxPlot(xs)
	if len(b.Outliers) != 1 || b.Outliers[0] != 5.0 {
		t.Errorf("outliers: %v", b.Outliers)
	}
	if b.WhiskerHigh >= 5.0 {
		t.Error("whisker must not extend to the outlier")
	}
	if b.Median != 1.03 {
		t.Errorf("median %f", b.Median)
	}
	if b.Spread() <= 0 || b.IQR() <= 0 {
		t.Error("degenerate box")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if b.WhiskerLow != sorted[0] {
		t.Errorf("whisker low %f", b.WhiskerLow)
	}
}

func TestBoxPlotDegenerate(t *testing.T) {
	b := BoxPlot([]float64{2, 2, 2})
	if b.Spread() != 0 || b.Median != 2 {
		t.Errorf("constant data box: %+v", b)
	}
}

func TestMPKI(t *testing.T) {
	if MPKI(500, 100_000) != 5 {
		t.Error("MPKI")
	}
	if MPKI(5, 0) != 0 {
		t.Error("MPKI with zero instructions")
	}
}

func TestPercentDiff(t *testing.T) {
	if PercentDiff(100, 100) != 0 {
		t.Error("equal values")
	}
	if got := PercentDiff(100, 99); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("1%% diff: %f", got)
	}
	if PercentDiff(0, 0) != 0 {
		t.Error("both zero")
	}
	if PercentDiff(0, 50) != 100 {
		t.Error("zero vs nonzero is 100%")
	}
	if PercentDiff(99, 100) != PercentDiff(100, 99) {
		t.Error("must be symmetric")
	}
}

func TestOverheadPct(t *testing.T) {
	if got := OverheadPct(2.0, 2.1); math.Abs(got-5) > 1e-9 {
		t.Errorf("overhead %f", got)
	}
	if OverheadPct(0, 5) != 0 {
		t.Error("zero baseline guarded")
	}
	if OverheadPct(2, 1.9) >= 0 {
		t.Error("speedup should be negative")
	}
}

func TestWriteCSV(t *testing.T) {
	events := []isa.Event{isa.EvInstructions, isa.EvLLCMisses}
	samples := []monitor.Sample{
		{Time: ktime.Time(100 * ktime.Microsecond), Deltas: []uint64{1000, 5}},
		{Time: ktime.Time(200 * ktime.Microsecond), Deltas: []uint64{1100, 7}},
		{Time: ktime.Time(300 * ktime.Microsecond), Deltas: []uint64{900}}, // short row
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, events, samples); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines: %d", len(lines))
	}
	if lines[0] != "time_us,INST_RETIRED,LLC_MISSES" {
		t.Errorf("header: %q", lines[0])
	}
	if lines[1] != "100.0,1000,5" {
		t.Errorf("row 1: %q", lines[1])
	}
	if lines[3] != "300.0,900,0" {
		t.Errorf("short row should zero-fill: %q", lines[3])
	}
}

func TestBucket(t *testing.T) {
	series := []uint64{1, 2, 3, 4, 5, 6}
	b := Bucket(series, 3)
	if len(b) != 3 || b[0] != 3 || b[1] != 7 || b[2] != 11 {
		t.Errorf("buckets: %v", b)
	}
	if got := Bucket(series, 100); len(got) != len(series) {
		t.Error("more buckets than points should clamp")
	}
	if Bucket(nil, 3) != nil || Bucket(series, 0) != nil {
		t.Error("degenerate inputs")
	}
	// Bucketing conserves the total.
	var sum uint64
	for _, v := range Bucket(series, 4) {
		sum += v
	}
	if sum != 21 {
		t.Errorf("bucket sum %d", sum)
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]uint64{0, 1, 2, 3, 4, 5, 6, 7, 8}, 9)
	if len([]rune(s)) != 9 {
		t.Errorf("width: %q", s)
	}
	if !strings.HasSuffix(s, "█") {
		t.Errorf("max should render full block: %q", s)
	}
	if !strings.HasPrefix(s, " ") {
		t.Errorf("zero should render blank: %q", s)
	}
	if Sparkline(nil, 10) != "" {
		t.Error("empty series")
	}
	flat := Sparkline([]uint64{0, 0, 0}, 3)
	if flat != "   " {
		t.Errorf("all-zero series: %q", flat)
	}
}
