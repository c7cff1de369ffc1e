package cache_test

import (
	"testing"

	"kleb/internal/cache"
	"kleb/internal/machine"
)

// BenchmarkCacheAccess prices one Hierarchy.Access on Nehalem geometry: the
// per-level lookup and LRU victim choice the raw model pays per simulated
// touch. The stream is the one Table II's init phase feeds the caches: its
// 34.56 MB matmul footprint walked in the 2 KB steps the sampled walk
// takes, so nearly every access misses L1D, L2 and the LLC. One warm-up
// sweep first fills every set the walk reaches, which is the steady state
// a trial runs in.
func BenchmarkCacheAccess(b *testing.B) {
	const base, step, footprint = 0x2_0000_0000, 2 << 10, 3 * 1200 * 1200 * 8
	h := cache.NewHierarchy(machine.Nehalem().CPU.Hierarchy)
	for cur := uint64(0); cur < footprint; cur += step {
		h.Access(base + cur)
	}
	var cur uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(base + cur)
		cur = (cur + step) % footprint
	}
}
