package ktime

// Rand is a small deterministic pseudo-random source (SplitMix64). Every
// stochastic element of the simulation — timer jitter, scheduling noise,
// randomized memory access patterns — draws from a seeded Rand so that runs
// are exactly reproducible and experiments can vary only their seed.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. Distinct seeds yield
// statistically independent streams.
func NewRand(seed uint64) *Rand { return &Rand{state: seed + 0x9e3779b97f4a7c15} }

// Reseed resets the generator to the stream NewRand(seed) would produce,
// reusing the allocation — for hot paths that need a fresh deterministic
// stream per use without allocating.
func (r *Rand) Reseed(seed uint64) { r.state = seed + 0x9e3779b97f4a7c15 }

// Uint64 returns the next raw 64-bit value.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("ktime: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n). Returns 0 when n is 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.Uint64() % n
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Norm returns an approximately standard-normal variate using the sum of
// twelve uniforms (Irwin–Hall), which is plenty for jitter modelling and
// avoids math/rand dependencies.
func (r *Rand) Norm() float64 {
	s := 0.0
	for i := 0; i < 12; i++ {
		s += r.Float64()
	}
	return s - 6
}

// Jitter returns a non-negative duration centred on mean with the given
// relative standard deviation (e.g. 0.1 for 10%). The result is clamped to
// [0, 4*mean] so a single unlucky draw cannot distort an experiment.
func (r *Rand) Jitter(mean Duration, relStddev float64) Duration {
	if mean == 0 {
		return 0
	}
	v := float64(mean) * (1 + relStddev*r.Norm())
	// math.Max and math.Min are calls on amd64; two comparisons clamp
	// every finite v the same way, -0 included.
	if hi := 4 * float64(mean); v > hi {
		v = hi
	} else if v < 0 {
		v = 0
	}
	return Duration(v)
}

// Split derives an independent generator; useful to give each subsystem its
// own stream so adding draws in one place does not perturb another.
func (r *Rand) Split() *Rand { return NewRand(r.Uint64()) }
