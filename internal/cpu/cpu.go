// Package cpu models a single processor core: it executes workload
// instruction blocks against the cache hierarchy and branch predictor,
// producing ground-truth hardware event counts and the virtual time each
// block consumes.
//
// The model is a throughput/latency cost model, not a cycle-accurate
// pipeline: block cycles = instructions × base CPI, plus memory stall
// cycles from the cache simulation, plus branch mispredict penalties. That
// level of fidelity is what the paper's experiments consume — event time
// series with realistic phase structure and execution times that respond to
// monitoring-induced perturbation (extra syscalls, interrupts, cache
// pollution).
package cpu

import (
	"kleb/internal/branch"
	"kleb/internal/cache"
	"kleb/internal/isa"
	"kleb/internal/ktime"
	"kleb/internal/pmu"
)

// Config parameterizes the core model.
type Config struct {
	// Freq is the core clock frequency.
	Freq ktime.Freq
	// BaseCPI is cycles per instruction for pipeline execution assuming L1
	// hits (whose latency is folded in) and perfect branch prediction.
	BaseCPI float64
	// BranchMissPenalty is the pipeline-flush cost per mispredict, cycles.
	BranchMissPenalty uint64
	// PrefetchMemCycles replaces the DRAM latency for misses on sequential
	// (strided, stride ≤ 2 lines) walks: the hardware prefetcher hides
	// most of the memory latency for streams. Miss *counts* are unchanged
	// — prefetching is a latency optimization, not a miss filter, at the
	// fidelity this model needs. Zero disables the approximation.
	PrefetchMemCycles uint64
	// FlushCycles is the cost of one CLFLUSH instruction.
	FlushCycles uint64
	// Hierarchy is the data cache configuration.
	Hierarchy cache.HierarchyConfig
	// PredictorBits sizes the gshare predictor (2^bits entries).
	PredictorBits uint
	// MaxSimAccesses caps how many memory accesses (and branches) of a
	// block are actually simulated; results are scaled to the block's real
	// totals. It trades simulation speed against cache-model fidelity.
	MaxSimAccesses uint64
	// NoMemo disables the block-cost memo layer (DESIGN.md §13), forcing
	// every Execute through the raw cache/branch simulation. Model unit
	// tests use it to probe the underlying simulators directly.
	NoMemo bool
}

// defaultFootprint is the memory-pattern footprint assumed when a block
// declares none; simulateMemory and the memo layer's warmth class must
// agree on it.
const defaultFootprint = 4096

// Costed is a fully priced batch of executed work: the event counts it
// generated and the virtual time it took, at a given privilege level. A
// Costed result can be cut at a timer boundary without re-simulation.
type Costed struct {
	Counts isa.Counts
	Time   ktime.Duration
	Priv   isa.Priv
}

// Cut removes the first budget of time from the work and returns it as the
// head; c keeps the tail. Each head count is count×budget/Time rounded to
// nearest, computed in uint64 as hi×budget + (lo×budget + Time/2)/Time with
// hi, lo = count/Time, count%Time, and the tail keeps the rest, clamped at
// zero. A budget that covers the whole item returns all of it and leaves c
// empty at the same privilege.
func (c *Costed) Cut(budget ktime.Duration) (head Costed) {
	if budget >= c.Time {
		head = *c
		*c = Costed{Priv: c.Priv}
		return head
	}
	// head is built in the result slot and the counts are read by index
	// (ranging over the array would copy it), so the cut copies no vector.
	head.Time, head.Priv = budget, c.Priv
	num, den := uint64(budget), uint64(c.Time)
	for i := range c.Counts {
		v := c.Counts[i]
		if v == 0 {
			continue // rounds to a zero head and a zero tail
		}
		var hi uint64 // v/den; most counts of a slice are below its time
		if v >= den {
			hi = v / den
		}
		h := hi*num + ((v-hi*den)*num+den/2)/den
		head.Counts[i] = h
		if v >= h {
			c.Counts[i] = v - h
		} else {
			c.Counts[i] = 0
		}
	}
	c.Time -= budget
	return head
}

// Core is one simulated processor core.
type Core struct {
	cfg    Config
	caches *cache.Hierarchy
	pred   *branch.Predictor
	tlb    *TLB
	pmu    *pmu.PMU
	rng    *ktime.Rand

	// cursors holds the sequential-walk position per memory region so that
	// streaming patterns persist across blocks of the same workload phase.
	cursors map[uint64]uint64
	// swept accumulates the bytes each region's walk cursor has covered;
	// swept/footprint is the cache-warmth class of the memo key.
	swept map[uint64]uint64

	// Memo layer state (memo.go). memo caches Costed results per
	// (block, state-class); pollution is the recovery window after a context
	// switch or interrupt eviction, counting down one per executed block;
	// llcSeen detects foreign mutation of a shared LLC; replaySwept is the
	// walk advance of the last replayed block, consumed by AdvanceReplays.
	memo        map[memoKey]memoEntry
	pollution   uint8
	llcSeen     uint64
	replaySwept uint64
	// classRng is the reusable class-seeded stream memoizable measurements
	// draw from (see memo.go's classSeed).
	classRng *ktime.Rand
	// snapL1/snapL2/snapLLC hold each level's statistics and generation
	// across the Save/Restore bracket around a memoized measurement; the
	// levels' own undo journals rewind the lines and recency orders, so the
	// canonical probe leaves no trace in the memory-side state (memo.go).
	// snapTLB is a full copy of the TLB, which is small enough to copy.
	snapL1, snapL2, snapLLC cache.State
	snapTLB                 tlbState
}

// New builds a core. The PMU is created by the caller (it belongs to the
// machine's register file) and attached here so executed work feeds it.
func New(cfg Config, p *pmu.PMU, rng *ktime.Rand) *Core {
	return NewShared(cfg, p, rng, nil)
}

// NewShared builds a core whose hierarchy sits in front of an externally
// shared last-level cache (nil allocates a private LLC) — several cores
// built around one LLC model a multi-core socket's capacity contention.
func NewShared(cfg Config, p *pmu.PMU, rng *ktime.Rand, sharedLLC *cache.Cache) *Core {
	if cfg.MaxSimAccesses == 0 {
		cfg.MaxSimAccesses = 2048
	}
	if cfg.PredictorBits == 0 {
		cfg.PredictorBits = 12
	}
	return &Core{
		cfg:      cfg,
		caches:   cache.NewHierarchyShared(cfg.Hierarchy, sharedLLC),
		pred:     branch.New(cfg.PredictorBits),
		tlb:      newTLB(),
		pmu:      p,
		rng:      rng,
		cursors:  make(map[uint64]uint64),
		swept:    make(map[uint64]uint64),
		memo:     make(map[memoKey]memoEntry),
		classRng: ktime.NewRand(0),
	}
}

// Config returns the core configuration.
func (c *Core) Config() Config { return c.cfg }

// Caches returns the core's cache hierarchy.
func (c *Core) Caches() *cache.Hierarchy { return c.caches }

// PMU returns the core's performance monitoring unit.
func (c *Core) PMU() *pmu.PMU { return c.pmu }

// OnContextSwitch applies the microarchitectural damage of switching to a
// different process: partial cache pollution, branch history loss, and a
// full TLB flush (address-space change). The fractions come from the
// kernel's cost model.
func (c *Core) OnContextSwitch(l1Frac, l2Frac, llcFrac float64) {
	c.caches.Pollute(l1Frac, l2Frac, llcFrac)
	c.pred.FlushHistory()
	c.tlb.flush()
	c.pollution = pollutionWindow
	// The pollution above was self-inflicted and is captured by the memo
	// key's pollution class; resync so it is not mistaken for a sibling
	// core's shared-LLC traffic.
	c.llcSeen = c.caches.LLC().Gen()
}

// InterruptPollute applies the L1D eviction an interrupt handler inflicts
// on the running process's working set. Unlike a context switch it does
// NOT open the memo layer's recovery window: the eviction touches a
// fraction of one 32KB level that refills within a single block, so its
// per-block cost is noise-level — while opening the window would move
// every block of a high-frequency-sampled run into pollution classes
// disjoint from its baseline's, destroying the common-mode cancellation
// that makes monitored/baseline runtime ratios low-variance (the paper's
// Fig 8 signal). Interrupt overhead is charged where it belongs: in the
// interrupt entry/exit/handler costs.
func (c *Core) InterruptPollute(frac float64) {
	if frac <= 0 {
		return
	}
	c.caches.L1D().EvictFraction(frac)
}

// TLBMisses exposes the cumulative data-TLB miss count.
func (c *Core) TLBMisses() uint64 { return c.tlb.Misses() }

// measure prices one instruction block through the raw model: it runs the
// block's memory accesses through the cache hierarchy (sampled and scaled
// when large), its branches through the predictor, computes cycles from the
// cost model and returns the resulting event counts and duration plus the
// bytes the region walk cursor advanced (the memo layer replays that
// advance arithmetically). Execute (memo.go) wraps this with the
// state-class memo; neither feeds the PMU — the kernel applies counts after
// deciding how the block interleaves with timer events.
func (c *Core) measure(b isa.Block) (Costed, uint64) {
	var counts isa.Counts
	counts[isa.EvInstructions] = b.Instr
	counts[isa.EvLoads] = b.Loads
	counts[isa.EvStores] = b.Stores
	counts[isa.EvBranches] = b.Branches
	counts[isa.EvMulOps] = b.MulOps
	counts[isa.EvFPOps] = b.FPOps
	counts[isa.EvCacheFlushes] = b.Flushes

	memStall, swept := c.simulateMemory(b, &counts)
	missCount := c.simulateBranches(b)
	counts[isa.EvBranchMisses] = missCount

	cycles := uint64(float64(b.Instr)*c.cfg.BaseCPI) +
		memStall +
		missCount*c.cfg.BranchMissPenalty +
		b.Flushes*c.cfg.FlushCycles
	if cycles == 0 && !b.Empty() {
		cycles = 1
	}
	counts[isa.EvCycles] = cycles
	counts[isa.EvRefCycles] = cycles
	// Stalls are the cycles beyond pipelined execution: memory stalls plus
	// mispredict recovery plus flush latency — derived, not resimulated, so
	// the cost model stays single-sourced.
	counts[isa.EvStallCycles] = memStall +
		missCount*c.cfg.BranchMissPenalty +
		b.Flushes*c.cfg.FlushCycles
	// IMC traffic: every LLC miss is one DRAM line read; writebacks are the
	// store-share of those misses (a dirty line evicted per missed store, to
	// first order). Pure arithmetic on counts already simulated.
	llcMiss := counts[isa.EvLLCMisses]
	counts[isa.EvCASReads] = llcMiss
	if mem := b.Loads + b.Stores; mem > 0 {
		counts[isa.EvCASWrites] = (llcMiss*b.Stores + mem/2) / mem
	}

	return Costed{Counts: counts, Time: c.cfg.Freq.Duration(cycles), Priv: b.Priv}, swept
}

// simulateMemory runs the block's flushes and data accesses through the
// hierarchy and returns the stall cycles beyond L1-hit latency plus the
// bytes the region's walk cursor advanced (recorded in c.swept and in the
// memo entry so a replay can advance the cursor without resimulating).
// Large blocks are sampled: sim accesses are taken, results scaled by
// total/sim.
func (c *Core) simulateMemory(b isa.Block, counts *isa.Counts) (uint64, uint64) {
	total := b.MemOps()
	if total == 0 && b.Flushes == 0 {
		return 0, 0
	}
	pat := b.Mem
	if pat.Footprint == 0 {
		pat.Footprint = defaultFootprint
	}
	if pat.Stride == 0 {
		pat.Stride = c.cfg.Hierarchy.L1D.LineSize
	}

	// CLFLUSH traffic models Flush+Reload: each flush is paired with the
	// reload of the same line (the covert channel's probe), which misses
	// the whole hierarchy by construction. Loads beyond the flush count
	// flow through the normal access path below.
	var pairStall, sweptBytes uint64
	if b.Flushes > 0 {
		pairs := b.Flushes
		if pairs > b.Loads {
			pairs = b.Loads
		}
		simPairs := pairs
		if simPairs > c.cfg.MaxSimAccesses {
			simPairs = c.cfg.MaxSimAccesses
		}
		var missCycles uint64
		for i := uint64(0); i < simPairs; i++ {
			addr, random := c.nextAddr(pat)
			if !random {
				sweptBytes += pat.Stride
			}
			c.caches.Flush(addr)
			r := c.caches.Access(addr)
			missCycles += r.Cycles - c.cfg.Hierarchy.L1D.LatencyCycles
		}
		counts[isa.EvL1DMisses] += pairs
		counts[isa.EvL2Misses] += pairs
		counts[isa.EvLLCRefs] += pairs
		counts[isa.EvLLCMisses] += pairs
		pairStall = scale64(missCycles, pairs, simPairs)
		total -= pairs // paired loads are accounted for
		// Flushes beyond the pair budget (pure eviction storms) still
		// damage the cache state.
		extraFlush := b.Flushes - pairs
		if extraFlush > c.cfg.MaxSimAccesses {
			extraFlush = c.cfg.MaxSimAccesses
		}
		for i := uint64(0); i < extraFlush; i++ {
			addr, random := c.nextAddr(pat)
			if !random {
				sweptBytes += pat.Stride
			}
			c.caches.Flush(addr)
		}
	}

	if total == 0 {
		c.swept[pat.Base] += sweptBytes
		return pairStall, sweptBytes
	}

	// The unit of simulation is a cache-line *touch*, not an individual
	// access: a unit-stride walk touches each line lineSize/stride times,
	// and only the first of those can miss (the rest are guaranteed L1
	// hits whose latency the base CPI already covers). Simulating touches
	// keeps the walk cursor moving at the workload's real speed even when
	// the touch stream is sampled, so cold footprints warm up after one
	// real sweep instead of looking perpetually cold.
	lineSize := c.cfg.Hierarchy.L1D.LineSize
	perLine := uint64(1)
	if pat.Stride < lineSize {
		perLine = lineSize / pat.Stride
	}
	randomAccesses := uint64(float64(total) * pat.RandomFrac)
	walkAccesses := total - randomAccesses
	walkTouches := walkAccesses / perLine
	touches := walkTouches + randomAccesses
	if touches == 0 {
		touches = 1
	}

	sim := touches
	if sim > c.cfg.MaxSimAccesses {
		sim = c.cfg.MaxSimAccesses
	}
	// Walk touches advance the cursor by a full line each; the sampled
	// stream is thinned by advancing the cursor for the skipped touches in
	// bulk after the loop (the cache sees a uniform sample of the sweep).
	pr := float64(randomAccesses) / float64(touches)

	// Two-half bookkeeping: the unsimulated remainder is extrapolated from
	// the *second* half's rates, so transients (context-switch pollution, a
	// cold start within the window) are charged once, not multiplied by
	// the sampling scale factor.
	l1Lat := c.cfg.Hierarchy.L1D.LatencyCycles
	var h [2]struct {
		l1m, l2m, llcRef, llcMiss, tlbm, cycles, n uint64
	}
	// Walk-touch TLB misses happen once per page crossing; the thinned
	// walk (cursor advancing walkStep per touch) already crosses pages at
	// the block's *real* rate, so these are charged raw — extrapolating
	// them by the touch scale would double-count. Random-touch misses are
	// per-access and go through the normal extrapolation.
	var tlbWalkMiss, tlbWalkCycles uint64
	half := sim / 2
	prefetchable := c.cfg.PrefetchMemCycles > 0 &&
		pat.Stride <= 2*lineSize &&
		c.cfg.PrefetchMemCycles < c.cfg.Hierarchy.MemLatencyCycles
	// Stride for a sampled walk touch: cover the real span of the block's
	// sweep with the sampled touches.
	walkStep := lineSize
	if pat.Stride >= lineSize {
		walkStep = pat.Stride
	}
	simWalk := sim - uint64(float64(sim)*pr)
	if simWalk > 0 && walkTouches > simWalk {
		walkStep = walkStep * walkTouches / simWalk
		// Keep the thinned walk on line-aligned strides so successive
		// sweeps revisit the same line set (otherwise every sweep looks
		// cold and miss counts inflate).
		walkStep = (walkStep + lineSize - 1) / lineSize * lineSize
	}
	cur := c.cursors[pat.Base]
	for i := uint64(0); i < sim; i++ {
		b := 0
		if i >= half && half > 0 {
			b = 1
		}
		var addr uint64
		random := pr > 0 && c.rng.Float64() < pr
		if random {
			addr = pat.Base + c.rng.Uint64n(pat.Footprint)&^7
		} else {
			addr = pat.Base + cur
			cur = (cur + walkStep) % pat.Footprint
			sweptBytes += walkStep
		}
		r := c.caches.Access(addr)
		if !r.L1Hit && !r.L2Hit && !r.LLCHit && prefetchable && !random {
			r.Cycles -= c.cfg.Hierarchy.MemLatencyCycles - c.cfg.PrefetchMemCycles
		}
		if !c.tlb.access(addr >> tlbPageBits) {
			if random {
				h[b].tlbm++
				r.Cycles += tlbWalkPenalty
			} else {
				tlbWalkMiss++
				tlbWalkCycles += tlbWalkPenalty
			}
		}
		h[b].n++
		h[b].cycles += r.Cycles - l1Lat
		if !r.L1Hit {
			h[b].l1m++
			if !r.L2Hit {
				h[b].l2m++
				h[b].llcRef++
				if !r.LLCHit {
					h[b].llcMiss++
				}
			}
		}
	}
	// The map is only ever indexed, never ranged, so storing an unmoved
	// cursor for a region with no walk touches is unobservable.
	c.cursors[pat.Base] = cur
	rest := touches - sim
	steady := h[1]
	if steady.n == 0 {
		steady = h[0]
	}
	counts[isa.EvL1DMisses] += extrapolate(h[0].l1m+h[1].l1m, steady.l1m, rest, steady.n)
	counts[isa.EvL2Misses] += extrapolate(h[0].l2m+h[1].l2m, steady.l2m, rest, steady.n)
	counts[isa.EvLLCRefs] += extrapolate(h[0].llcRef+h[1].llcRef, steady.llcRef, rest, steady.n)
	counts[isa.EvLLCMisses] += extrapolate(h[0].llcMiss+h[1].llcMiss, steady.llcMiss, rest, steady.n)
	counts[isa.EvDTLBMisses] += extrapolate(h[0].tlbm+h[1].tlbm, steady.tlbm, rest, steady.n) + tlbWalkMiss
	c.swept[pat.Base] += sweptBytes
	return pairStall + tlbWalkCycles + extrapolate(h[0].cycles+h[1].cycles, steady.cycles, rest, steady.n), sweptBytes
}

// nextAddr produces the next address of the pattern: mostly a strided walk
// with a RandomFrac admixture of uniform accesses over the footprint. The
// second result reports whether this was a random (non-prefetchable) access.
// Random draws are offsets *relative to the walk cursor* (still uniform over
// the footprint): their overlap with the recently-walked, still-cached
// window is then independent of the cursor's absolute position, which is
// what lets the memo layer measure a block's canonical instance at any
// point of the sweep and get the same cost (memo.go).
func (c *Core) nextAddr(p isa.MemPattern) (uint64, bool) {
	if p.RandomFrac > 0 && c.rng.Float64() < p.RandomFrac {
		off := (c.cursors[p.Base] + c.rng.Uint64n(p.Footprint)) % p.Footprint
		return p.Base + off&^7, true
	}
	cur := c.cursors[p.Base]
	c.cursors[p.Base] = (cur + p.Stride) % p.Footprint
	return p.Base + cur, false
}

// simulateBranches produces the mispredict count for the block. A sampled
// branch stream runs through the gshare predictor: a fraction of branches
// (2× the declared tendency) have random outcomes — which a predictor gets
// wrong about half the time — while the rest follow a stable pattern the
// predictor learns. Mispredicts therefore respond to predictor warmth
// (history flushes after context switches raise the rate briefly).
func (c *Core) simulateBranches(b isa.Block) uint64 {
	if b.Branches == 0 {
		return 0
	}
	sim := b.Branches
	if sim > c.cfg.MaxSimAccesses {
		sim = c.cfg.MaxSimAccesses
	}
	hardFrac := 2 * b.BranchMispredictRate
	if hardFrac > 1 {
		hardFrac = 1
	}
	// A small set of static branch sites, derived from the block's memory
	// region so different workloads exercise different predictor entries.
	base := b.Mem.Base>>4 | 0x40000000
	var miss uint64
	for i := uint64(0); i < sim; i++ {
		pc := base + (i%16)*4
		var taken bool
		if c.rng.Float64() < hardFrac {
			taken = c.rng.Uint64()&1 == 0
		} else {
			taken = i%8 != 7 // predictable loop-style pattern
		}
		if c.pred.Predict(pc, taken) {
			miss++
		}
	}
	return scale64(miss, b.Branches, sim)
}

// extrapolate scales a steady-phase count over the unsimulated tail of a
// sweep: simTotal touches were simulated, rest were not, and each of the
// rest behaves like one of the n steady touches that produced steadyCount.
// A plain function (not a closure) keeps simulateMemory off the heap.
func extrapolate(simTotal, steadyCount, rest, n uint64) uint64 {
	return simTotal + scale64(steadyCount, rest, n)
}

func scale64(v, num, den uint64) uint64 {
	if den == 0 {
		return 0
	}
	hi := v / den
	lo := v % den
	return hi*num + (lo*num+den/2)/den
}
