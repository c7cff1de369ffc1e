package cache

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
)

// gcCycles returns the number of completed garbage collections, read
// without stopping the world.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// FuzzReleaseReuse runs op sequence a on a cache, releases it, builds the
// same geometry again and runs sequence b on the new cache against a fresh
// reference: a cache built on recycled storage must be indistinguishable
// from a freshly allocated one. Both sequences go through matchCache, so
// they mix accesses, flushes, EvictFraction and Save/Prewarm/Restore
// brackets. While no garbage collection intervenes, the second cache must
// actually be built on the first one's arrays, journal capacity included.
func FuzzReleaseReuse(f *testing.F) {
	// One P: sync.Pool keeps a released object in the current P's private
	// slot, and only the same P's next Get is sure to find it.
	prev := runtime.GOMAXPROCS(1)
	f.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	f.Add(byte(2), []byte{4, 0, 0, 5, 1, 200, 0, 0, 1, 2, 0, 1, 4, 0, 0}, []byte{0, 0, 1, 3, 0, 1, 0, 0, 9})
	f.Add(byte(5), []byte("prewarm, probe, restore, then pollute"), []byte("and begin again on reused storage"))
	f.Fuzz(func(t *testing.T, w byte, a, b []byte) {
		cfg := refConfig(refWays[int(w)%len(refWays)])
		c := New(cfg)
		matchCache(t, c, a)
		tags, journal := &c.tags[0], cap(c.journal)
		gcs := gcCycles()
		c.Release()
		d := New(cfg)
		if !raceEnabled && gcCycles() == gcs && (&d.tags[0] != tags || cap(d.journal) != journal) {
			t.Fatalf("New did not reuse the released storage (journal cap %d, was %d)", cap(d.journal), journal)
		}
		requireFresh(t, d)
		matchCache(t, d, b)
		d.Release()
	})
}

// requireFresh fails unless c holds exactly what New builds on newly
// allocated arrays: no valid tag, no settled set, an empty journal, and
// every set's ways in index order.
func requireFresh(t *testing.T, c *Cache) {
	t.Helper()
	var order uint64
	for w := uint64(0); w < c.ways; w++ {
		order |= w << (4 * w)
	}
	for i, tag := range c.tags {
		if tag != 0 {
			t.Fatalf("slot %d of a new cache holds tag %#x", i, tag)
		}
	}
	for i, o := range c.lru {
		if o != order {
			t.Fatalf("set %d of a new cache has recency order %#x, want %#x", i, o, order)
		}
	}
	for i, w := range c.settled {
		if w != 0 {
			t.Fatalf("settled word %d of a new cache is %#x", i, w)
		}
	}
	if len(c.journal) != 0 {
		t.Fatalf("a new cache's journal holds %d entries", len(c.journal))
	}
}

// TestReleaseLifecycle pins Release's edges: a released cache fails loudly
// on use, a second Release is a no-op, and Release inside a bracket panics
// without giving anything up.
func TestReleaseLifecycle(t *testing.T) {
	c := New(refConfig(4))
	c.Access(0)
	c.Release()
	if s := c.Stats(); s.Accesses != 1 {
		t.Errorf("released cache's Stats = %+v, want the one access", s)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Access after Release did not panic")
			}
		}()
		c.Access(0)
	}()
	c.Release()

	o := New(refConfig(4))
	var s State
	o.Save(&s)
	o.Access(64)
	mustPanic(t, "Release inside a bracket", errReleaseInBracket, o.Release)
	o.Restore(&s)
	if o.Contains(64) {
		t.Error("Restore after a refused Release did not rewind the bracket")
	}
	o.Release()
}

// TestReleaseKeysByGeometry: two geometries with the same line count but
// different set counts have different recency arrays, so they must never
// exchange storage.
func TestReleaseKeysByGeometry(t *testing.T) {
	narrow := Config{Name: "narrow", Size: 64 * 64 * 4, LineSize: 64, Ways: 4}
	wide := Config{Name: "wide", Size: 32 * 64 * 8, LineSize: 64, Ways: 8}
	for i := 0; i < 16; i++ {
		n := New(narrow)
		tags := &n.tags[0]
		n.Release()
		w := New(wide)
		if &w.tags[0] == tags {
			t.Fatal("a 32-set cache was built on a released 64-set cache's storage")
		}
		if len(w.lru) != 32 || len(w.tags) != 256 {
			t.Fatalf("wide cache has %d recency words and %d tags, want 32 and 256", len(w.lru), len(w.tags))
		}
		w.Release()
	}
}

// TestReleaseNewConcurrent releases and builds caches of one geometry from
// eight goroutines at once. Each cache must start empty and keep its own
// lines to itself: storage handed to two live caches would show up here as
// a foreign line, a missing one, or (under -race) a data race.
func TestReleaseNewConcurrent(t *testing.T) {
	cfg := Config{Name: "conc", Size: 16 * 64 * 4, LineSize: 64, Ways: 4}
	var wg sync.WaitGroup
	for g := uint64(0); g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := g * cfg.Size // a disjoint, cache-sized range per goroutine
			for i := 0; i < 200; i++ {
				c := New(cfg)
				if occ := c.Occupancy(); occ != 0 {
					t.Errorf("goroutine %d: new cache starts %.2f occupied", g, occ)
					return
				}
				for a := base; a < base+cfg.Size; a += cfg.LineSize {
					c.Access(a)
				}
				for a := base; a < base+cfg.Size; a += cfg.LineSize {
					if !c.Contains(a) {
						t.Errorf("goroutine %d: line %#x lost", g, a)
						return
					}
				}
				if s := c.Stats(); s.Misses != cfg.Size/cfg.LineSize || s.Hits != 0 {
					t.Errorf("goroutine %d: stats %+v on a fresh cache", g, s)
					return
				}
				c.Release()
			}
		}()
	}
	wg.Wait()
}

// TestHierarchyReleaseOwnership: a hierarchy releases the LLC it allocated
// itself, never one it was handed.
func TestHierarchyReleaseOwnership(t *testing.T) {
	cfg := HierarchyConfig{
		L1D: Config{Name: "L1D", Size: 1 << 12, LineSize: 64, Ways: 2},
		L2:  Config{Name: "L2", Size: 1 << 14, LineSize: 64, Ways: 4},
		LLC: Config{Name: "LLC", Size: 1 << 16, LineSize: 64, Ways: 8},
	}
	shared := New(cfg.LLC)
	h := NewHierarchyShared(cfg, shared)
	h.Access(0)
	h.Release()
	if h.L1D().tags != nil || h.L2().tags != nil {
		t.Error("Release kept the private levels' storage")
	}
	if !shared.Contains(0) {
		t.Error("releasing a hierarchy took its shared LLC with it")
	}
	shared.Release()

	own := NewHierarchy(cfg)
	own.Release()
	if own.LLC().tags != nil {
		t.Error("Release kept the storage of an LLC the hierarchy allocated")
	}
}
