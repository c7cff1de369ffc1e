package cache

import (
	"errors"
	"reflect"
	"testing"
)

// eagerPrewarm is the walk Prewarm replaces: every line of the footprint
// accessed in address order, skipped when the footprint exceeds the cache.
func eagerPrewarm(c *Cache, base, fp uint64) {
	if fp > c.Config().Size {
		return
	}
	for a := base; a < base+fp; a += c.Config().LineSize {
		c.Access(a)
	}
}

// lcg is a tiny deterministic stream so both sides of a comparison see the
// same addresses.
type lcg uint64

func (r *lcg) next(n uint64) uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r>>17) % n
}

// mustPanic fails t unless fn panics with want.
func mustPanic(t *testing.T, what string, want error, fn func()) {
	t.Helper()
	defer func() {
		got, _ := recover().(error)
		if !errors.Is(got, want) {
			t.Errorf("%s: panic %v, want %v", what, got, want)
		}
	}()
	fn()
}

// TestPrewarmMatchesEager checks the lazy Prewarm against the eager walk:
// after the same random stream of accesses and flushes, both caches must
// report identical hits, misses and evictions, the same residency for every
// line, the same generation, and — once every set has been reached —
// byte-identical tags and recency orders. Restore must then undo both.
func TestPrewarmMatchesEager(t *testing.T) {
	cfg := Config{Name: "pw", Size: 8192, LineSize: 64, Ways: 4, LatencyCycles: 1}
	const span = 4 * 8192 // addresses drawn from four cache-fulls
	cases := []struct {
		name     string
		base, fp uint64
	}{
		{"aligned", 0x2000, 3000 &^ 63},
		{"unaligned base", 0x2024, 2048},
		{"partial last line", 0x2000, 1000},
		{"unaligned partial", 0x20f0, 5000},
		{"whole cache", 0x1000, 8192},
		{"larger than cache is a no-op", 0x1000, 8192 + 64},
		{"empty", 0x1000, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lazy, eager := New(cfg), New(cfg)
			seed := lcg(7)
			for i := 0; i < 200; i++ {
				a := seed.next(span)
				lazy.Access(a)
				eager.Access(a)
			}
			before := deepCopy(lazy)
			var ls, es State
			lazy.Save(&ls)
			eager.Save(&es)
			lazy.Prewarm(tc.base, tc.fp)
			eagerPrewarm(eager, tc.base, tc.fp)
			if lazy.gen != eager.gen {
				t.Fatalf("gen after prewarm: lazy %d, eager %d", lazy.gen, eager.gen)
			}
			r := lcg(11)
			for i := 0; i < 300; i++ {
				a := r.next(span)
				if r.next(8) == 0 {
					if l, e := lazy.Flush(a), eager.Flush(a); l != e {
						t.Fatalf("op %d: Flush(%#x) lazy %v eager %v", i, a, l, e)
					}
					continue
				}
				if l, e := lazy.Access(a), eager.Access(a); l != e {
					t.Fatalf("op %d: Access(%#x) lazy hit %v eager hit %v", i, a, l, e)
				}
			}
			for a := uint64(0); a < span; a += cfg.LineSize {
				if l, e := lazy.Contains(a), eager.Contains(a); l != e {
					t.Fatalf("Contains(%#x): lazy %v eager %v", a, l, e)
				}
			}
			if !reflect.DeepEqual(lazy.tags, eager.tags) || !reflect.DeepEqual(lazy.lru, eager.lru) {
				t.Fatal("tags/recency orders differ once every set is settled")
			}
			if lazy.gen != eager.gen {
				t.Fatalf("gen: lazy %d, eager %d", lazy.gen, eager.gen)
			}
			lazy.Restore(&ls)
			eager.Restore(&es)
			if !reflect.DeepEqual(deepCopy(lazy), before) || !reflect.DeepEqual(deepCopy(eager), before) {
				t.Fatal("Restore did not rewind to the pre-Save state")
			}
		})
	}
}

// TestPrewarmSharedLLC pre-warms one hierarchy's levels, including an LLC
// shared with a second hierarchy, then drives both hierarchies with one
// interleaved stream: the sibling's LLC traffic must see the pre-warmed
// lines exactly as it would after an eager walk.
func TestPrewarmSharedLLC(t *testing.T) {
	cfg := HierarchyConfig{
		L1D:              Config{Name: "L1D", Size: 1 << 11, LineSize: 64, Ways: 2, LatencyCycles: 4},
		L2:               Config{Name: "L2", Size: 1 << 13, LineSize: 64, Ways: 4, LatencyCycles: 10},
		LLC:              Config{Name: "LLC", Size: 1 << 15, LineSize: 64, Ways: 8, LatencyCycles: 30},
		MemLatencyCycles: 100,
	}
	type socket struct {
		llc    *Cache
		h1, h2 *Hierarchy
	}
	build := func() socket {
		llc := New(cfg.LLC)
		return socket{llc, NewHierarchyShared(cfg, llc), NewHierarchyShared(cfg, llc)}
	}
	lazy, eager := build(), build()
	const span = 1 << 17
	const base, fp = 0x3010, 6000 // fits L2 and LLC, not L1D
	seed := lcg(3)
	for i := 0; i < 500; i++ {
		a := seed.next(span)
		lazy.h1.Access(a)
		lazy.h2.Access(a + 64)
		eager.h1.Access(a)
		eager.h2.Access(a + 64)
	}
	var lsnap, esnap [3]State
	levels := func(s socket) [3]*Cache { return [3]*Cache{s.h1.L1D(), s.h1.L2(), s.llc} }
	for i, c := range levels(lazy) {
		c.Save(&lsnap[i])
		c.Prewarm(base, fp)
	}
	for i, c := range levels(eager) {
		c.Save(&esnap[i])
		eagerPrewarm(c, base, fp)
	}
	r := lcg(5)
	for i := 0; i < 2000; i++ {
		a := base - 1024 + r.next(fp+2048)
		if r.next(4) == 0 {
			a = r.next(span)
		}
		lh, eh := lazy.h1, eager.h1
		if r.next(2) == 0 {
			lh, eh = lazy.h2, eager.h2
		}
		if l, e := lh.Access(a), eh.Access(a); l != e {
			t.Fatalf("op %d: Access(%#x) lazy %+v eager %+v", i, a, l, e)
		}
	}
	all := func(s socket) []*Cache {
		return []*Cache{s.h1.L1D(), s.h1.L2(), s.h2.L1D(), s.h2.L2(), s.llc}
	}
	lc, ec := all(lazy), all(eager)
	for i := range lc {
		for a := uint64(0); a < span; a += 64 {
			if lc[i].Contains(a) != ec[i].Contains(a) {
				t.Fatalf("%s Contains(%#x) differs", lc[i].Config().Name, a)
			}
		}
		if !reflect.DeepEqual(lc[i].tags, ec[i].tags) || !reflect.DeepEqual(lc[i].lru, ec[i].lru) {
			t.Fatalf("cache %d (%s): tags/recency orders differ once settled", i, lc[i].Config().Name)
		}
	}
	for i, c := range levels(lazy) {
		c.Restore(&lsnap[i])
	}
	for i, c := range levels(eager) {
		c.Restore(&esnap[i])
	}
	for i := range lc {
		if !reflect.DeepEqual(deepCopy(lc[i]), deepCopy(ec[i])) {
			t.Fatalf("cache %d (%s) differs after Restore", i, lc[i].Config().Name)
		}
	}
}

// TestBracketDiscipline pins the bracket's misuse panics: nested Save,
// Restore or Prewarm outside a bracket, and pollution inside one (which
// would otherwise write lines the journal never sees).
func TestBracketDiscipline(t *testing.T) {
	c := New(smallConfig())
	var s State
	mustPanic(t, "Restore without Save", errNoBracket, func() { c.Restore(&s) })
	mustPanic(t, "Prewarm without Save", errNoBracket, func() { c.Prewarm(0, 64) })
	c.Save(&s)
	mustPanic(t, "nested Save", errNestedSave, func() { c.Save(&State{}) })
	mustPanic(t, "EvictFraction in bracket", errEvictInBracket, func() { c.EvictFraction(0.5) })
	h := NewHierarchyShared(HierarchyConfig{L1D: smallConfig(), L2: smallConfig()}, c)
	mustPanic(t, "Pollute reaching a bracketed LLC", errEvictInBracket, func() { h.Pollute(0, 0, 0.5) })
	c.Restore(&s)
	c.EvictFraction(0.5) // legal again once the bracket is closed
}
