package cache

import (
	"fmt"
	"math"
	"testing"
)

// refCache is the naive LRU cache Cache must match: every access stamps its
// line with the next value of a 64-bit counter, a miss replaces the first
// way with the smallest stamp (an invalid way has stamp 0), Save and
// Restore deep-copy the whole cache, and Prewarm walks the footprint
// eagerly.
type refCache struct {
	cfg        Config
	sets       uint64
	tags, ages []uint64
	stamp, gen uint64
	stats      Stats
	snap       *refCache // the Save copy
}

func newRef(cfg Config) *refCache {
	n := cfg.Sets() * uint64(cfg.Ways)
	return &refCache{cfg: cfg, sets: cfg.Sets(), tags: make([]uint64, n), ages: make([]uint64, n)}
}

// row returns the first slot of addr's set and the line's tag.
func (r *refCache) row(addr uint64) (base, tag uint64) {
	line := addr / r.cfg.LineSize
	return line % r.sets * uint64(r.cfg.Ways), line | 1<<63
}

func (r *refCache) fill(addr uint64) bool {
	base, tag := r.row(addr)
	r.stamp++
	r.gen++
	victim := base
	for i := base; i < base+uint64(r.cfg.Ways); i++ {
		if r.tags[i] == tag {
			r.ages[i] = r.stamp
			return true
		}
		if r.ages[i] < r.ages[victim] {
			victim = i
		}
	}
	r.tags[victim], r.ages[victim] = tag, r.stamp
	return false
}

func (r *refCache) Access(addr uint64) bool {
	r.stats.Accesses++
	if r.fill(addr) {
		r.stats.Hits++
		return true
	}
	r.stats.Misses++
	return false
}

func (r *refCache) Contains(addr uint64) bool {
	base, tag := r.row(addr)
	for i := base; i < base+uint64(r.cfg.Ways); i++ {
		if r.tags[i] == tag {
			return true
		}
	}
	return false
}

func (r *refCache) Flush(addr uint64) bool {
	r.stats.Flushes++
	base, tag := r.row(addr)
	for i := base; i < base+uint64(r.cfg.Ways); i++ {
		if r.tags[i] == tag {
			r.tags[i], r.ages[i] = 0, 0
			r.gen++
			return true
		}
	}
	return false
}

// EvictFraction invalidates every slot whose index is a multiple of
// floor(1/frac); for a tiny frac that is +Inf, so slot 0 alone.
func (r *refCache) EvictFraction(frac float64) {
	if math.IsNaN(frac) || frac <= 0 {
		return
	}
	r.gen++
	step := math.Floor(1 / frac)
	for i := range r.tags {
		if frac >= 1 || math.Mod(float64(i), step) == 0 {
			r.tags[i], r.ages[i] = 0, 0
		}
	}
}

func (r *refCache) Save() {
	r.snap = &refCache{
		tags:  append([]uint64(nil), r.tags...),
		ages:  append([]uint64(nil), r.ages...),
		stamp: r.stamp, gen: r.gen, stats: r.stats,
	}
}

func (r *refCache) Restore() {
	copy(r.tags, r.snap.tags)
	copy(r.ages, r.snap.ages)
	r.stamp, r.gen, r.stats = r.snap.stamp, r.snap.gen, r.snap.stats
	r.snap = nil
}

// Prewarm is the eager walk: every line of the footprint filled in address
// order without counting in Stats, skipped when it exceeds the cache.
func (r *refCache) Prewarm(base, fp uint64) {
	if fp == 0 || fp > r.cfg.Size {
		return
	}
	for a := base; a < base+fp; a += r.cfg.LineSize {
		r.fill(a)
	}
}

// refWays are the associativities the differential tests cover, up to the
// 16 a recency-order word holds; 12 leaves unused nibbles in the word.
var refWays = []int{1, 2, 4, 8, 12, 16}

// matchReference drives a Cache of the given associativity (8 sets of
// 64-byte lines) and a refCache through ops, three bytes per operation: a
// kind and a 16-bit argument. Kinds are Access, Flush, Contains, a
// Save/Restore toggle, and Prewarm inside a bracket or EvictFraction
// outside one. Every result, the statistics and Gen must agree after each
// operation, and every line's residency at the end, both before and after
// a final Restore.
func matchReference(t *testing.T, ways int, ops []byte) {
	t.Helper()
	cfg := Config{Name: "ref", Size: 8 * 64 * uint64(ways), LineSize: 64, Ways: ways, LatencyCycles: 1}
	span := 4 * cfg.Size // four cache-fulls of lines
	c, r := New(cfg), newRef(cfg)
	var s State
	open := false
	agree := func(i int, what string) {
		t.Helper()
		if c.Stats() != r.stats || c.Gen() != r.gen {
			t.Fatalf("ways %d op %d after %s: stats %+v gen %d, reference %+v gen %d",
				ways, i, what, c.Stats(), c.Gen(), r.stats, r.gen)
		}
	}
	check := func(i int, what string, got, want bool) {
		t.Helper()
		if got != want {
			t.Fatalf("ways %d op %d: %s = %v, reference %v", ways, i, what, got, want)
		}
		agree(i, what)
	}
	residency := func(when string) {
		t.Helper()
		for a := uint64(0); a < span; a += cfg.LineSize {
			if c.Contains(a) != r.Contains(a) {
				t.Fatalf("ways %d %s: Contains(%#x) = %v, reference %v", ways, when, a, c.Contains(a), r.Contains(a))
			}
		}
	}
	for i := 0; i+2 < len(ops); i += 3 {
		v := uint64(ops[i+1])<<8 | uint64(ops[i+2])
		addr := v * 8 % span // 8-byte granularity: unaligned within a line
		switch ops[i] % 6 {
		case 0, 1:
			check(i, "Access", c.Access(addr), r.Access(addr))
		case 2:
			check(i, "Flush", c.Flush(addr), r.Flush(addr))
		case 3:
			check(i, "Contains", c.Contains(addr), r.Contains(addr))
		case 4:
			if open {
				c.Restore(&s)
				r.Restore()
			} else {
				c.Save(&s)
				r.Save()
			}
			open = !open
			agree(i, "Save/Restore")
		case 5:
			if open {
				// Empty, partial-line, whole-cache and larger-than-cache
				// footprints.
				fp := uint64(ops[i+2]) * (cfg.Size + 2*cfg.LineSize) / 255
				c.Prewarm(addr, fp)
				r.Prewarm(addr, fp)
				agree(i, "Prewarm")
			} else {
				frac := float64(ops[i+2]) / 128 // 0 (a no-op) to ~2 (everything)
				c.EvictFraction(frac)
				r.EvictFraction(frac)
				agree(i, "EvictFraction")
			}
		}
	}
	residency("at the end")
	if open {
		c.Restore(&s)
		r.Restore()
		agree(len(ops), "final Restore")
		residency("after the final Restore")
	}
}

// TestMatchesReference runs long random operation streams through
// matchReference at every covered associativity, for op mixes that stress
// invalid ways in the middle of a set (flushes), whole-cache pollution and
// brackets with pre-warms.
func TestMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		kinds []byte // matchReference op kinds to draw from
	}{
		{"access and flush", []byte{0, 2, 3}},
		{"pollution", []byte{0, 0, 2, 5}},
		{"brackets", []byte{0, 1, 2, 3, 4, 5}},
	}
	for _, tc := range cases {
		for _, ways := range refWays {
			t.Run(fmt.Sprintf("%s/%d-way", tc.name, ways), func(t *testing.T) {
				for seed := lcg(1); seed < 4; seed++ {
					r := seed
					ops := make([]byte, 3*3000)
					for i := 0; i < len(ops); i += 3 {
						ops[i] = tc.kinds[r.next(uint64(len(tc.kinds)))]
						ops[i+1] = byte(r.next(256))
						ops[i+2] = byte(r.next(256))
					}
					matchReference(t, ways, ops)
				}
			})
		}
	}
}

// FuzzMatchesReference is TestMatchesReference over arbitrary operation
// streams; w picks the associativity.
func FuzzMatchesReference(f *testing.F) {
	f.Add(byte(2), []byte{0, 0, 1, 0, 1, 1, 2, 0, 1, 0, 0, 9, 4, 0, 0, 5, 1, 200, 0, 0, 1, 4, 0, 0})
	f.Add(byte(5), []byte("flush a way, refill it, prewarm and evict"))
	f.Fuzz(func(t *testing.T, w byte, ops []byte) {
		matchReference(t, refWays[int(w)%len(refWays)], ops)
	})
}
