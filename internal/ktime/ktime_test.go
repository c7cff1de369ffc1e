package ktime

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(1000)
	if got := t0.Add(500); got != 1500 {
		t.Errorf("Add: got %d, want 1500", got)
	}
	if got := Time(1500).Sub(t0); got != 500 {
		t.Errorf("Sub: got %d, want 500", got)
	}
	if got := t0.Sub(Time(2000)); got != 0 {
		t.Errorf("Sub underflow should clamp to 0, got %d", got)
	}
	if !t0.Before(1001) || t0.Before(1000) {
		t.Error("Before misbehaves")
	}
	if !Time(1001).After(t0) || t0.After(t0) {
		t.Error("After misbehaves")
	}
}

func TestDurationUnits(t *testing.T) {
	if Second != 1e9 || Millisecond != 1e6 || Microsecond != 1e3 {
		t.Fatal("unit constants wrong")
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Error("Seconds conversion")
	}
	if (1500 * Microsecond).Milliseconds() != 1.5 {
		t.Error("Milliseconds conversion")
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{5 * Nanosecond, "5ns"},
		{2 * Microsecond, "2µs"},
		{3 * Millisecond, "3ms"},
		{4 * Second, "4s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", uint64(c.d), got, c.want)
		}
	}
}

func TestDurationScale(t *testing.T) {
	if got := Duration(1000).Scale(1, 2); got != 500 {
		t.Errorf("Scale half: got %d", got)
	}
	if got := Duration(1000).Scale(3, 3); got != 1000 {
		t.Errorf("Scale identity: got %d", got)
	}
	if got := Duration(1000).Scale(1, 0); got != 0 {
		t.Errorf("Scale by zero denominator should be 0, got %d", got)
	}
	// Rounding to nearest.
	if got := Duration(10).Scale(1, 3); got != 3 {
		t.Errorf("Scale rounding: got %d, want 3", got)
	}
}

func TestScaleNeverExceedsOriginal(t *testing.T) {
	f := func(d uint32, num8, den8 uint8) bool {
		den := uint64(den8) + 1
		num := uint64(num8) % den
		got := Duration(d).Scale(num, den)
		return got <= Duration(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClockMonotonic(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatal("clock should boot at zero")
	}
	c.Advance(100)
	c.AdvanceTo(500)
	if c.Now() != 500 {
		t.Fatalf("got %v", c.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("AdvanceTo backwards should panic")
		}
	}()
	c.AdvanceTo(400)
}

func TestFreqRoundTrip(t *testing.T) {
	f := MHz(2670)
	if f.Hz != 2670e6 {
		t.Fatalf("MHz: got %d", f.Hz)
	}
	// One second is exactly Hz cycles.
	if got := f.Cycles(Second); got != 2670e6 {
		t.Errorf("Cycles(1s) = %d", got)
	}
	if got := f.Duration(2670e6); got != Second {
		t.Errorf("Duration(Hz) = %v", got)
	}
	if got := (Freq{}).Duration(100); got != 0 {
		t.Errorf("zero freq Duration should be 0, got %v", got)
	}
}

func TestFreqConversionApproximateInverse(t *testing.T) {
	f := MHz(2500)
	prop := func(c32 uint32) bool {
		c := uint64(c32)
		back := f.Cycles(f.Duration(c))
		diff := int64(back) - int64(c)
		if diff < 0 {
			diff = -diff
		}
		return diff <= 2 // ns quantization loses at most ~2 cycles
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d identical values", same)
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %v", v)
		}
		if v := r.Uint64n(9); v >= 9 {
			t.Fatalf("Uint64n out of range: %v", v)
		}
	}
	if r.Uint64n(0) != 0 {
		t.Error("Uint64n(0) should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestNormIsRoughlyStandard(t *testing.T) {
	r := NewRand(11)
	var sum, sumSq float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Errorf("Norm mean %f not ≈ 0", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Errorf("Norm variance %f not ≈ 1", variance)
	}
}

func TestJitter(t *testing.T) {
	r := NewRand(3)
	if r.Jitter(0, 0.5) != 0 {
		t.Error("zero mean should give zero jitter")
	}
	var sum Duration
	const n = 5000
	mean := Duration(1000)
	for i := 0; i < n; i++ {
		v := r.Jitter(mean, 0.2)
		if v > 4*mean {
			t.Fatalf("jitter exceeded clamp: %v", v)
		}
		sum += v
	}
	avg := float64(sum) / n
	if avg < 950 || avg > 1050 {
		t.Errorf("jitter mean %f drifted from 1000", avg)
	}
}

// TestJitterClampMatchesMathMaxMin pins Jitter's two-comparison clamp to
// the reference math.Max(0, math.Min(v, 4*mean)), bit for bit, on the same
// draws. At relStddev 3.0 both clamps fire.
func TestJitterClampMatchesMathMaxMin(t *testing.T) {
	means := []Duration{1, 250, 1200, 45_000, 1 << 40}
	for _, rel := range []float64{0.12, 3.0} {
		got, ref := NewRand(11), NewRand(11)
		var low, high int
		for i := 0; i < 1_000_000; i++ {
			mean := means[i%len(means)]
			v := float64(mean) * (1 + rel*ref.Norm())
			want := Duration(math.Max(0, math.Min(v, 4*float64(mean))))
			if g := got.Jitter(mean, rel); g != want {
				t.Fatalf("rel %v draw %d: Jitter(%d) = %d, max/min formula gives %d", rel, i, mean, g, want)
			}
			if v < 0 {
				low++
			} else if v > 4*float64(mean) {
				high++
			}
		}
		if rel == 3.0 && (low == 0 || high == 0) {
			t.Errorf("rel %v: clamps fired low %d, high %d times; want both", rel, low, high)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRand(5)
	s1 := r.Split()
	s2 := r.Split()
	if s1.Uint64() == s2.Uint64() {
		t.Error("split streams should differ")
	}
}
