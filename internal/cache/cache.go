// Package cache implements the set-associative cache hierarchy that
// generates the memory-side hardware events (L1D misses, LLC references,
// LLC misses) for the simulated CPU.
//
// The model is deliberately simple — physically indexed, true-LRU,
// write-allocate, no prefetcher — because the reproduction targets the
// *relative* behaviour the paper relies on: small footprints hit in cache
// (compute-intensive, MPKI < 1), large or random footprints miss in the LLC
// (memory-intensive, MPKI > 10), and Flush+Reload storms produce abnormal
// LLC reference/miss ratios.
package cache

import (
	"errors"
	"fmt"
	"math"
)

// Config describes one cache level.
type Config struct {
	// Name identifies the level in stats output ("L1D", "L2", "LLC").
	Name string
	// Size is the capacity in bytes.
	Size uint64
	// LineSize is the cache line size in bytes (power of two).
	LineSize uint64
	// Ways is the associativity.
	Ways int
	// LatencyCycles is the hit latency charged by the CPU's CPI model.
	LatencyCycles uint64
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() uint64 {
	if c.LineSize == 0 || c.Ways == 0 {
		return 0
	}
	return c.Size / (c.LineSize * uint64(c.Ways))
}

// Validate checks the geometry for internal consistency.
func (c Config) Validate() error {
	if c.Size == 0 || c.LineSize == 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %s: size, line size and ways must be positive", c.Name)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %s: line size %d is not a power of two", c.Name, c.LineSize)
	}
	if c.Size%(c.LineSize*uint64(c.Ways)) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by line*ways", c.Name, c.Size)
	}
	if c.Size/c.LineSize > math.MaxUint32 {
		return fmt.Errorf("cache %s: more than 2^32 lines", c.Name)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d is not a power of two", c.Name, sets)
	}
	return nil
}

// Stats accumulates per-level access statistics.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
	Flushes  uint64
}

// MissRatio returns misses/accesses, or 0 for an untouched cache.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a single set-associative level with true LRU replacement.
// A line is identified by its tag; age counters implement LRU exactly
// (small associativities make the O(ways) scan cheap).
//
// Every Access stamps its line with the next value of a 64-bit counter.
// LRU only ever compares the ages of one set's lines, so a line stores its
// stamp as a 32-bit offset from ageBase; when the offsets would overflow,
// rebase renumbers each set's ages by rank, which keeps every comparison
// the same.
type Cache struct {
	cfg      Config
	sets     uint64
	lineBits uint
	setMask  uint64
	tags     []uint64 // sets*ways entries; 0 means invalid
	ages     []uint32 // LRU stamp per way, less ageBase; 0 means invalid
	ageBase  uint64
	stamp    uint64
	stats    Stats
	gen      uint64 // mutation generation, see Gen

	// Bracket state (see Save). open marks a Save without its Restore yet;
	// journal is the undo log of every slot write since Save; pending is
	// the bracket's Prewarm range (n == 0: none) and settled the bitset of
	// sets it has already been applied to.
	open    bool
	journal []undo
	pending prewarm
	settled []uint64
}

// undo is one journal entry: a slot and the tag and age it held before a
// write inside the bracket.
type undo struct {
	tag       uint64
	slot, age uint32
}

// prewarm is one lazily applied Prewarm: n consecutive lines starting at
// line number first, line k stamped stamp0+k+1.
type prewarm struct {
	first, n, stamp0 uint64
}

// New builds a cache from cfg. It panics on invalid geometry: profiles are
// static data fixed at compile time, so a bad one is a programming error.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:     cfg,
		sets:    sets,
		setMask: sets - 1,
		tags:    make([]uint64, sets*uint64(cfg.Ways)),
		ages:    make([]uint32, sets*uint64(cfg.Ways)),
		settled: make([]uint64, (sets+63)/64),
	}
	for lb := cfg.LineSize; lb > 1; lb >>= 1 {
		c.lineBits++
	}
	return c
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the statistics without disturbing cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	line := addr >> c.lineBits
	return line & c.setMask, line | 1<<63 // high bit marks valid
}

// Gen returns the cache's mutation generation: a counter bumped by every
// state-changing operation (Access, an evicting Flush, EvictFraction). Two
// equal Gen readings bracket a window in which the cache contents were
// untouched; the CPU's memo layer uses this on the shared LLC to detect
// interleaved accesses from sibling cores and fall back to measurement.
func (c *Cache) Gen() uint64 { return c.gen }

// State is the part of a cache's mutable state that Save records by value:
// the LRU stamp, the statistics and the mutation generation. Line contents
// are not copied; Save opens an undo journal on the cache instead, and
// Restore replays it, so a bracket costs in proportion to the lines written
// inside it rather than to the cache size. The CPU's memo layer brackets
// its canonical block measurements with a Save/Restore pair to keep them
// side-effect-free (see internal/cpu/memo.go).
//
// The bracket's discipline: a cache has at most one open bracket (a nested
// Save panics), Restore must pair with the Save that opened it, and
// EvictFraction panics inside a bracket rather than escape the journal.
type State struct {
	stamp uint64
	stats Stats
	gen   uint64
}

var (
	errNestedSave     = errors.New("cache: Save inside an open Save/Restore bracket")
	errNoBracket      = errors.New("cache: Restore or Prewarm without an open Save/Restore bracket")
	errEvictInBracket = errors.New("cache: EvictFraction inside an open Save/Restore bracket")
	errAgeOverflow    = errors.New("cache: more than 2^31 stamps inside one Save/Restore bracket")
)

// Save records the cache's stamp, statistics and generation into s and
// opens the undo journal: every slot write until the matching Restore is
// logged with the tag and age it overwrote.
func (c *Cache) Save(s *State) {
	if c.open {
		panic(errNestedSave)
	}
	// Leave the bracket half the 32-bit age range, so it never needs a
	// rebase the journal could not undo.
	if c.stamp-c.ageBase > math.MaxUint32/2 {
		c.rebase()
	}
	s.stamp = c.stamp
	s.stats = c.stats
	s.gen = c.gen
	c.open = true
}

// Restore rewinds the cache to the state Save captured into s: it undoes
// the journal newest-first, drops any pending Prewarm and closes the
// bracket.
func (c *Cache) Restore(s *State) {
	if !c.open {
		panic(errNoBracket)
	}
	for i := len(c.journal) - 1; i >= 0; i-- {
		u := c.journal[i]
		c.tags[u.slot] = u.tag
		c.ages[u.slot] = u.age
	}
	c.journal = c.journal[:0]
	c.pending = prewarm{}
	c.open = false
	c.stamp = s.stamp
	c.stats = s.stats
	c.gen = s.gen
}

// Prewarm makes the footprint [base, base+fp) resident exactly as the
// eager walk
//
//	for a := base; a < base+fp; a += LineSize { c.Access(a) }
//
// would, except that it counts nothing in Stats. It is a no-op when fp
// exceeds the cache size, and it is only valid inside a Save/Restore
// bracket. The walk is not performed here: Prewarm reserves the stamps the
// walk would have used (line k gets stamp0+k+1) and applies the lines of a
// set the first time a later Access, Flush or Contains reaches that set.
// LRU state is per set and the walk only ever compares ages within one
// set, so that first touch finds exactly what the eager walk would have
// left, and sets nothing touches are never observed before Restore
// discards the range. One range is pending at a time: a second Prewarm in
// the same bracket first applies the earlier range to every set.
func (c *Cache) Prewarm(base, fp uint64) {
	if !c.open {
		panic(errNoBracket)
	}
	if fp == 0 || fp > c.cfg.Size {
		return
	}
	if c.pending.n != 0 {
		c.settleAll()
	}
	clear(c.settled)
	n := (fp + c.cfg.LineSize - 1) >> c.lineBits
	if c.stamp+n-c.ageBase > math.MaxUint32 {
		c.rebase()
	}
	c.pending = prewarm{first: base >> c.lineBits, n: n, stamp0: c.stamp}
	c.stamp += n
	c.gen += n
}

// settle applies the pending Prewarm range to set, once, with the stamps
// the range reserved.
func (c *Cache) settle(set uint64) {
	w, bit := set>>6, uint64(1)<<(set&63)
	if c.settled[w]&bit != 0 {
		return
	}
	c.settled[w] |= bit
	p := c.pending
	// The range's lines are consecutive line numbers, so those in this set
	// are every sets-th one from the first that maps here.
	for k := (set - p.first) & c.setMask; k < p.n; k += c.sets {
		c.fill(set, (p.first+k)|1<<63, p.stamp0+k+1)
	}
}

// settleAll applies the pending Prewarm range to every set.
func (c *Cache) settleAll() {
	for set := uint64(0); set < c.sets; set++ {
		c.settle(set)
	}
}

// fill looks tag up in set and stamps it with stamp, replacing the LRU way
// on a miss. It returns true on hit.
func (c *Cache) fill(set, tag, stamp uint64) bool {
	age := uint32(stamp - c.ageBase)
	base := set * uint64(c.cfg.Ways)
	victim := base
	oldest := uint32(math.MaxUint32)
	for i := base; i < base+uint64(c.cfg.Ways); i++ {
		if c.tags[i] == tag {
			c.write(i, tag, age)
			return true
		}
		if c.ages[i] < oldest {
			oldest = c.ages[i]
			victim = i
		}
	}
	c.write(victim, tag, age)
	return false
}

// write sets one slot, journaling the old contents inside a bracket.
func (c *Cache) write(slot, tag uint64, age uint32) {
	if c.open {
		c.journal = append(c.journal, undo{tag: c.tags[slot], slot: uint32(slot), age: c.ages[slot]})
	}
	c.tags[slot] = tag
	c.ages[slot] = age
}

// Access looks up addr, filling the line on a miss. It returns true on hit.
func (c *Cache) Access(addr uint64) bool {
	set, tag := c.index(addr)
	if c.pending.n != 0 {
		c.settle(set)
	}
	if c.stamp-c.ageBase >= math.MaxUint32 {
		c.rebase()
	}
	c.stamp++
	c.gen++
	c.stats.Accesses++
	if c.fill(set, tag, c.stamp) {
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// Contains reports whether addr's line is resident, without touching LRU
// state or statistics. Used by tests and by the attack model's probe phase.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	if c.pending.n != 0 {
		c.settle(set)
	}
	base := set * uint64(c.cfg.Ways)
	for i := base; i < base+uint64(c.cfg.Ways); i++ {
		if c.tags[i] == tag {
			return true
		}
	}
	return false
}

// Flush evicts addr's line if present (CLFLUSH semantics) and returns
// whether a line was actually evicted.
func (c *Cache) Flush(addr uint64) bool {
	set, tag := c.index(addr)
	if c.pending.n != 0 {
		c.settle(set)
	}
	base := set * uint64(c.cfg.Ways)
	c.stats.Flushes++
	for i := base; i < base+uint64(c.cfg.Ways); i++ {
		if c.tags[i] == tag {
			c.write(i, 0, 0)
			c.gen++
			return true
		}
	}
	return false
}

// EvictFraction invalidates approximately frac of all resident lines,
// choosing deterministically by position. The kernel uses it to model the
// cache pollution a context switch or interrupt handler inflicts on the
// running process's working set. Pollution is never part of a canonical
// measurement, so it panics inside a Save/Restore bracket instead of
// writing lines the journal would have to undo.
func (c *Cache) EvictFraction(frac float64) {
	if c.open {
		panic(errEvictInBracket)
	}
	if frac <= 0 {
		return
	}
	c.gen++
	if frac >= 1 {
		for i := range c.tags {
			c.tags[i] = 0
			c.ages[i] = 0
		}
		return
	}
	step := int(1 / frac)
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(c.tags); i += step {
		c.tags[i] = 0
		c.ages[i] = 0
	}
}

// rebase renumbers the ages of each set as 1, 2, … in LRU order (invalid
// lines keep 0) and moves ageBase so the current stamp sits just above
// every rank. Valid ages within a set are distinct, so every LRU decision
// is unchanged. It runs once per 2^31 stamps or so, never inside a bracket.
func (c *Cache) rebase() {
	if c.open {
		panic(errAgeOverflow)
	}
	ways := c.cfg.Ways
	rank := make([]uint32, ways) //klebvet:allow hotalloc -- one small scratch row per rebase, which runs once per 2^31 stamps
	for base := 0; base < len(c.ages); base += ways {
		set := c.ages[base : base+ways]
		for i, a := range set {
			rank[i] = 0
			if a == 0 {
				continue
			}
			rank[i] = 1
			for _, b := range set {
				if b != 0 && b < a {
					rank[i]++
				}
			}
		}
		copy(set, rank)
	}
	c.ageBase = c.stamp - uint64(ways)
}

// Occupancy returns the fraction of lines currently valid.
func (c *Cache) Occupancy() float64 {
	if c.pending.n != 0 {
		c.settleAll()
	}
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return float64(n) / float64(len(c.tags))
}
