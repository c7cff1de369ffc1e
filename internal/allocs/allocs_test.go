package allocs

import (
	"strings"
	"testing"
)

var (
	sink    *[4]int
	sinkStr string
	sinkInt *int
)

// TestCountsTheProgramsAllocations: allocations the program makes count,
// itself or through the standard library, each named by its site; the
// snapshots Count takes around an allocation-free window count nothing.
func TestCountsTheProgramsAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	if n, where := Count(func() {}); n != 0 {
		t.Errorf("an empty window counts %d allocations:\n%s", n, where)
	}
	n, where := Count(func() {
		for i := 0; i < 5; i++ {
			sink = new([4]int)
		}
	})
	if n != 5 || !strings.Contains(where, "5× kleb/internal/allocs.TestCountsTheProgramsAllocations.func") {
		t.Errorf("five direct allocations count %d:\n%s", n, where)
	}
	n, where = Count(func() { sinkStr = strings.Repeat("x", 100) })
	if n != 1 || !strings.Contains(where, "kleb/internal/allocs.TestCountsTheProgramsAllocations.func") {
		t.Errorf("an allocation through the standard library counts %d:\n%s", n, where)
	}
}

// TestCountsATinyAllocation: the runtime packs pointer-free allocations
// under 16 bytes into shared blocks and profiles only the one that opens a
// block, so a lone 8-byte allocation that fits a half-used block would go
// unseen; Count empties the blocks first, and it counts.
func TestCountsATinyAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	for i := 0; i < 20; i++ {
		sinkInt = new(int) // leaves this P's tiny block half used, at times
		if n, where := Count(func() { sinkInt = new(int) }); n != 1 {
			t.Fatalf("run %d: one tiny allocation counts %d:\n%s", i, n, where)
		}
	}
}

func TestPkgPath(t *testing.T) {
	for fn, want := range map[string]string{
		"kleb.Collect": "kleb",
		"kleb/internal/kernel.(*Kernel).RunUntil":      "kleb/internal/kernel",
		"kleb/internal/workload.TestX.func2.1":         "kleb/internal/workload",
		"kleb/internal/x.F[go.shape.struct { a/b.c }]": "kleb/internal/x",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.newarray":               "internal/runtime/maps",
		"klebx/y.F":                                    "klebx/y",
	} {
		if got := pkgPath(fn); got != want {
			t.Errorf("pkgPath(%q) = %q, want %q", fn, got, want)
		}
	}
}

type stringer interface{ String() string }

type cached int

func (cached) String() string { return "cached" }

var asserted int

// TestIgnoresTypeAssertionCaches: the runtime caches a type assertion's
// result at its call site, allocating the cache at a random miss (about 1
// in 1024); a window asserting one new type many times sees that
// allocation, and it is not the program's.
func TestIgnoresTypeAssertionCaches(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	var v any = cached(1)
	if n, where := Count(func() {
		for i := 0; i < 1<<16; i++ {
			if _, ok := v.(stringer); ok {
				asserted++
			}
		}
	}); n != 0 {
		t.Errorf("type assertions count %d allocations:\n%s", n, where)
	}
}
