package cache

import (
	"reflect"
	"testing"
)

// FuzzCacheOps drives a small cache with an arbitrary operation stream and
// checks structural invariants that must hold for any input: statistics
// account for every access, lookups after a fill hit, flushes evict, and
// occupancy stays within [0, 1].
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x82, 0xC3, 0x04})
	f.Add([]byte("flush and reload and flush again"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := New(Config{Name: "fuzz", Size: 4096, LineSize: 64, Ways: 2, LatencyCycles: 1})
		for i, op := range ops {
			addr := uint64(op) * 64 % 8192 // within two cache-fulls of lines
			switch i % 3 {
			case 0:
				c.Access(addr)
				if !c.Contains(addr) {
					t.Fatalf("line absent immediately after access (addr %#x)", addr)
				}
			case 1:
				c.Flush(addr)
				if c.Contains(addr) {
					t.Fatalf("line present immediately after flush (addr %#x)", addr)
				}
			case 2:
				c.EvictFraction(float64(op) / 512) // up to 50%
			}
			if occ := c.Occupancy(); occ < 0 || occ > 1 {
				t.Fatalf("occupancy %f out of range", occ)
			}
		}
		s := c.Stats()
		if s.Hits+s.Misses != s.Accesses {
			t.Fatalf("stats do not add up: %+v", s)
		}
	})
}

// FuzzHierarchyInclusive checks that any access pattern leaves the
// hierarchy responding consistently: a repeated access directly after a
// miss must hit L1, and flushes remove the line from every level.
func FuzzHierarchyInclusive(f *testing.F) {
	f.Add([]byte{1, 2, 3, 250, 251})
	f.Fuzz(func(t *testing.T, addrs []byte) {
		h := NewHierarchy(HierarchyConfig{
			L1D:              Config{Name: "L1D", Size: 1 << 12, LineSize: 64, Ways: 2, LatencyCycles: 4},
			L2:               Config{Name: "L2", Size: 1 << 14, LineSize: 64, Ways: 4, LatencyCycles: 10},
			LLC:              Config{Name: "LLC", Size: 1 << 16, LineSize: 64, Ways: 8, LatencyCycles: 30},
			MemLatencyCycles: 100,
		})
		for _, b := range addrs {
			addr := uint64(b) * 64
			h.Access(addr)
			r := h.Access(addr)
			if !r.L1Hit {
				t.Fatalf("back-to-back access missed L1 (addr %#x)", addr)
			}
			h.Flush(addr)
			if h.L1D().Contains(addr) || h.L2().Contains(addr) || h.LLC().Contains(addr) {
				t.Fatalf("flush left residue (addr %#x)", addr)
			}
		}
	})
}

// cacheCopy is a deep copy of everything Save/Restore must rewind.
type cacheCopy struct {
	tags, lru []uint64
	gen       uint64
	stats     Stats
}

func deepCopy(c *Cache) cacheCopy {
	return cacheCopy{
		tags:  append([]uint64(nil), c.tags...),
		lru:   append([]uint64(nil), c.lru...),
		gen:   c.gen,
		stats: c.stats,
	}
}

// FuzzSaveRestore runs an arbitrary mix of Access, Flush, Prewarm and
// Contains inside a Save…Restore bracket and requires Restore to give back
// exactly the state a deep copy took before Save. Two brackets run back to
// back, with the cache changed in between, so a second bracket cannot lean
// on journal or pre-warm state the first one left behind.
func FuzzSaveRestore(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200}, []byte{2, 0, 0, 5, 1, 5, 3, 40, 2, 128, 0, 77})
	f.Add([]byte("warm"), []byte("prewarm then probe the sets it reserved"))
	f.Fuzz(func(t *testing.T, warm, ops []byte) {
		c := New(Config{Name: "fuzz", Size: 4096, LineSize: 64, Ways: 2, LatencyCycles: 1})
		for _, b := range warm {
			c.Access(uint64(b) * 40)
		}
		for round := 0; round < 2; round++ {
			want := deepCopy(c)
			var s State
			c.Save(&s)
			for i := 0; i+1 < len(ops); i += 2 {
				// Unaligned addresses over four cache-fulls of lines.
				addr := uint64(ops[i+1]) * 72 % 16384
				switch ops[i] % 4 {
				case 0:
					c.Access(addr)
				case 1:
					c.Flush(addr)
				case 2:
					// 0 to 8160 bytes: empty, partial-line, exactly the
					// cache size (byte 128) and larger-than-cache ranges.
					c.Prewarm(addr, uint64(ops[i+1])*32)
				case 3:
					c.Contains(addr)
				}
			}
			c.Restore(&s)
			if got := deepCopy(c); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: Restore did not rewind the bracket:\n got  %+v\n want %+v", round, got, want)
			}
			c.Access(uint64(round+1) * 4096)
		}
	})
}
