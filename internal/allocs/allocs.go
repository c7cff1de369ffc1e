// Package allocs counts the heap allocations the program makes while a
// piece of it runs, for the zero-allocation tests. testing.AllocsPerRun
// reads runtime.MemStats.Mallocs, which counts every allocation in the
// process, the Go runtime's own included: a world restart starting a
// thread, the scavenger arming its timer or the collector taking a sudog
// lands in a measured window now and then and fails a gate the program
// passes. Count attributes each allocation to its call stack instead and
// keeps the program's.
package allocs

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
)

// module is the import path of the program's own packages.
const module = "kleb"

// snapshot is profile's name in a stack: the snapshots allocate too, and
// those allocations are not the program's.
const snapshot = module + "/internal/allocs.profile"

// runtimeCaches are the runtime functions that allocate on the program's
// stack for the runtime's own sake: the per-call-site caches of type
// assertions and type switches to interface types. A site's cache is
// rebuilt at a random miss (about 1 in 1024) until it holds every type
// seen there, so it is allocated a few times per site in a process's
// life, at calls no warm-up can pin down.
var runtimeCaches = map[string]bool{
	"runtime.typeAssert":                true,
	"runtime.buildTypeAssertCache":      true,
	"runtime.interfaceSwitch":           true,
	"runtime.buildInterfaceSwitchCache": true,
}

// Count runs f once and returns how many heap allocations the program made
// in it, and one line per allocation site for a failure message. An
// allocation is the program's when the innermost frame of its stack that
// lies in the module's packages is not Count's own snapshot, and no frame
// inside that one builds a runtime cache (runtimeCaches): whatever the
// program's code allocates, itself or through the standard library,
// counts, and what the runtime allocates on its own goroutines, on the
// system stack or for its type-assertion caches does not.
//
// Count profiles every allocation (runtime.MemProfileRate = 1) while it
// runs, and collects garbage before and after f, which publishes the heap
// profile up to that point, so the second snapshot holds all of f's
// allocations. The runtime packs pointer-free allocations under 16 bytes
// into shared 16-byte blocks and profiles only the one that opens a block,
// so a run of those counts as fewer, but never as none: Count empties the
// blocks just before f. Every other allocation counts exactly. The rate is
// process-wide: call Count only from a test that does not run in parallel
// with others.
func Count(f func()) (int, string) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	var stats runtime.MemStats
	before := profile()
	runtime.ReadMemStats(&stats) // flushes every P's allocation cache, emptying its tiny block
	f()
	after := profile()
	n := 0
	bySite := make(map[string]int64)
	for stk, c := range after {
		d := c - before[stk]
		if d <= 0 {
			continue
		}
		if site, ok := programSite(stk[:]); ok {
			n += int(d)
			bySite[site] += d
		}
	}
	lines := make([]string, 0, len(bySite))
	for site, d := range bySite {
		lines = append(lines, fmt.Sprintf("%d× %s", d, site))
	}
	sort.Strings(lines)
	return n, strings.Join(lines, "\n")
}

// profile collects garbage, then returns the heap profile's allocation
// counts by call stack.
func profile() map[[32]uintptr]int64 {
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		out[r.Stack0] += r.AllocObjects
	}
	return out
}

// programSite returns the innermost frame of stack in the module's
// packages as "function file:line", and whether the allocation is the
// program's: that frame is not a snapshot's, and no runtime cache is built
// inside it.
func programSite(stack []uintptr) (string, bool) {
	frames := runtime.CallersFrames(stack)
	cache := false
	for {
		fr, more := frames.Next()
		if pkg := pkgPath(fr.Function); pkg == module || strings.HasPrefix(pkg, module+"/") {
			return fmt.Sprintf("%s %s:%d", fr.Function, fr.File, fr.Line), fr.Function != snapshot && !cache
		}
		cache = cache || runtimeCaches[fr.Function]
		if !more {
			return "", false
		}
	}
}

// pkgPath returns the import path of the package a function name, as
// runtime.Frame.Function spells it, belongs to.
func pkgPath(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // a generic instantiation's type arguments may hold '/' and '.'
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
