package cache

import (
	"math"
	"testing"
	"testing/quick"
)

func smallConfig() Config {
	return Config{Name: "test", Size: 4096, LineSize: 64, Ways: 2, LatencyCycles: 4}
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []Config{
		{Name: "zero-size", Size: 0, LineSize: 64, Ways: 2},
		{Name: "zero-ways", Size: 4096, LineSize: 64, Ways: 0},
		{Name: "odd-line", Size: 4096, LineSize: 48, Ways: 2},
		{Name: "indivisible", Size: 4000, LineSize: 64, Ways: 2},
		{Name: "non-pow2-sets", Size: 64 * 3 * 64, LineSize: 64, Ways: 64},
		{Name: "non-pow2-sets-16-way", Size: 64 * 3 * 16, LineSize: 64, Ways: 16},
		{Name: "too-many-ways", Size: 64 * 2 * 32, LineSize: 64, Ways: 32},
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q should be invalid", c.Name)
		}
	}
}

func TestSetsGeometry(t *testing.T) {
	c := smallConfig()
	if got := c.Sets(); got != 32 {
		t.Errorf("Sets: got %d, want 32", got)
	}
	if (Config{}).Sets() != 0 {
		t.Error("zero config should have zero sets")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New should panic on invalid geometry")
		}
	}()
	New(Config{Size: 1, LineSize: 3, Ways: 1})
}

func TestHitAfterMiss(t *testing.T) {
	c := New(smallConfig())
	if c.Access(0x1000) {
		t.Error("first access should miss")
	}
	if !c.Access(0x1000) {
		t.Error("second access should hit")
	}
	if !c.Access(0x1038) {
		t.Error("same line (different offset) should hit")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats: %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache: three addresses mapping to the same set evict the least
	// recently used.
	c := New(smallConfig())
	setStride := uint64(32 * 64) // sets*lineSize: same set index
	a, b, x := uint64(0), setStride, 2*setStride
	c.Access(a) // miss; set = {a}
	c.Access(b) // miss; set = {a,b}
	c.Access(a) // hit; a most recent
	c.Access(x) // miss; evicts b (LRU)
	if !c.Access(a) {
		t.Error("a should still be resident")
	}
	if c.Access(b) {
		t.Error("b should have been evicted")
	}
}

func TestContainsDoesNotDisturb(t *testing.T) {
	c := New(smallConfig())
	c.Access(0x40)
	before := c.Stats()
	if !c.Contains(0x40) || c.Contains(0x4040) {
		t.Error("Contains wrong")
	}
	if c.Stats() != before {
		t.Error("Contains must not touch statistics")
	}
}

func TestFlush(t *testing.T) {
	c := New(smallConfig())
	c.Access(0x80)
	if !c.Flush(0x80) {
		t.Error("flush of resident line should report eviction")
	}
	if c.Contains(0x80) {
		t.Error("line still resident after flush")
	}
	if c.Flush(0x80) {
		t.Error("flush of absent line should report false")
	}
	if c.Stats().Flushes != 2 {
		t.Errorf("flush count: %d", c.Stats().Flushes)
	}
}

func TestEvictFraction(t *testing.T) {
	c := New(smallConfig())
	for i := uint64(0); i < 64; i++ {
		c.Access(i * 64)
	}
	if occ := c.Occupancy(); occ != 1.0 {
		t.Fatalf("cache should be full, occupancy %f", occ)
	}
	c.EvictFraction(0.5)
	if occ := c.Occupancy(); occ < 0.4 || occ > 0.6 {
		t.Errorf("after 50%% eviction occupancy %f", occ)
	}
	c.EvictFraction(1.0)
	if c.Occupancy() != 0 {
		t.Error("full eviction left lines")
	}
	c.EvictFraction(0) // no-op
	c.EvictFraction(-1)
}

// TestEvictFractionTinyOrNaN pins the edge fractions: one too small for a
// second slot (1/frac overflows an int) evicts slot 0 alone, and NaN, like
// a non-positive fraction, evicts nothing and leaves Gen alone.
func TestEvictFractionTinyOrNaN(t *testing.T) {
	c := New(smallConfig())
	for i := uint64(0); i < 64; i++ {
		c.Access(i * 64)
	}
	gen := c.Gen()
	c.EvictFraction(math.NaN())
	if occ := c.Occupancy(); occ != 1 || c.Gen() != gen {
		t.Errorf("EvictFraction(NaN): occupancy %f, gen %d → %d; want a no-op", occ, gen, c.Gen())
	}
	for _, frac := range []float64{1e-300, 1.0 / 64, 1.0 / 100} {
		c.Access(0)
		c.EvictFraction(frac)
		if c.Contains(0) {
			t.Errorf("EvictFraction(%g) kept slot 0's line", frac)
		}
		if occ := c.Occupancy(); occ != 63.0/64 {
			t.Errorf("EvictFraction(%g): occupancy %f, want only slot 0 evicted (%f)", frac, occ, 63.0/64)
		}
	}
}

func TestResetStats(t *testing.T) {
	c := New(smallConfig())
	c.Access(0)
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Error("ResetStats did not clear")
	}
	if !c.Contains(0) {
		t.Error("ResetStats must not clear contents")
	}
}

func TestMissRatio(t *testing.T) {
	if (Stats{}).MissRatio() != 0 {
		t.Error("empty stats ratio should be 0")
	}
	s := Stats{Accesses: 10, Misses: 3}
	if s.MissRatio() != 0.3 {
		t.Errorf("ratio %f", s.MissRatio())
	}
}

// Property: a working set that fits the cache, accessed twice sequentially,
// misses at most once per line.
func TestResidentSetHitsOnSecondSweep(t *testing.T) {
	prop := func(linesByte uint8) bool {
		lines := uint64(linesByte)%64 + 1 // ≤ 64 lines = full small cache
		c := New(smallConfig())
		for sweep := 0; sweep < 2; sweep++ {
			for i := uint64(0); i < lines; i++ {
				c.Access(i * 64)
			}
		}
		return c.Stats().Misses == lines
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 64}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyFillAndLatency(t *testing.T) {
	h := NewHierarchy(HierarchyConfig{
		L1D:              Config{Name: "L1D", Size: 1 << 12, LineSize: 64, Ways: 2, LatencyCycles: 4},
		L2:               Config{Name: "L2", Size: 1 << 14, LineSize: 64, Ways: 4, LatencyCycles: 10},
		LLC:              Config{Name: "LLC", Size: 1 << 16, LineSize: 64, Ways: 8, LatencyCycles: 30},
		MemLatencyCycles: 100,
	})
	r := h.Access(0x100)
	if r.L1Hit || r.L2Hit || r.LLCHit {
		t.Error("cold access should miss everywhere")
	}
	if r.Cycles != 4+10+30+100 {
		t.Errorf("cold latency %d", r.Cycles)
	}
	r = h.Access(0x100)
	if !r.L1Hit || r.Cycles != 4 {
		t.Errorf("warm access should hit L1 at 4 cycles: %+v", r)
	}
	// Evict from L1 only: next access hits L2.
	h.L1D().Flush(0x100)
	r = h.Access(0x100)
	if r.L1Hit || !r.L2Hit || r.Cycles != 14 {
		t.Errorf("L2 hit expected: %+v", r)
	}
}

func TestHierarchyFlushReachesAllLevels(t *testing.T) {
	h := NewHierarchy(HierarchyConfig{
		L1D:              Config{Name: "L1D", Size: 1 << 12, LineSize: 64, Ways: 2, LatencyCycles: 4},
		L2:               Config{Name: "L2", Size: 1 << 14, LineSize: 64, Ways: 4, LatencyCycles: 10},
		LLC:              Config{Name: "LLC", Size: 1 << 16, LineSize: 64, Ways: 8, LatencyCycles: 30},
		MemLatencyCycles: 100,
	})
	h.Access(0x200)
	if !h.Flush(0x200) {
		t.Error("flush should find line in LLC")
	}
	r := h.Access(0x200)
	if r.L1Hit || r.L2Hit || r.LLCHit {
		t.Error("flushed line should miss everywhere")
	}
}

func TestHierarchyPollute(t *testing.T) {
	h := NewHierarchy(HierarchyConfig{
		L1D:              Config{Name: "L1D", Size: 1 << 12, LineSize: 64, Ways: 2, LatencyCycles: 4},
		L2:               Config{Name: "L2", Size: 1 << 14, LineSize: 64, Ways: 4, LatencyCycles: 10},
		LLC:              Config{Name: "LLC", Size: 1 << 16, LineSize: 64, Ways: 8, LatencyCycles: 30},
		MemLatencyCycles: 100,
	})
	for i := uint64(0); i < 64; i++ {
		h.Access(i * 64)
	}
	h.Pollute(1, 0, 0)
	if h.L1D().Occupancy() != 0 {
		t.Error("L1 should be emptied")
	}
	if h.LLC().Occupancy() == 0 {
		t.Error("LLC should be untouched")
	}
	h.ResetStats()
	if h.L1D().Stats() != (Stats{}) || h.LLC().Stats() != (Stats{}) {
		t.Error("ResetStats incomplete")
	}
}
