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
	"math/bits"
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
	if c.Ways > maxWays {
		return fmt.Errorf("cache %s: %d ways, at most %d supported", c.Name, c.Ways, maxWays)
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

// maxWays is the largest associativity a set's recency order can hold: 16
// 4-bit way indices fill its 64-bit word.
const maxWays = 16

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
// A line is identified by its tag. Each set keeps its ways in recency
// order, packed as 4-bit way indices into one 64-bit word with the least
// recently used way in the low nibble, so an access updates LRU in O(1)
// with a few branch-free word operations (see promote).
//
// A miss fills the lowest-numbered invalid way, or the least recently used
// way when every way is valid. Invalidation (Flush, EvictFraction) clears
// only the tag and leaves the order alone. That is still exact LRU: the
// order is not consulted while a set has an invalid way, and once every
// way is valid again each one has been written since it was invalidated,
// each write moved it to the top, so the order is that of the last writes.
type Cache struct {
	cfg      Config
	sets     uint64
	ways     uint64
	mru      uint // bit offset of the most recently used way's nibble
	lineBits uint
	setMask  uint64
	tags     []uint64 // sets*ways entries; 0 means invalid
	lru      []uint64 // per set: way indices in recency order, LRU lowest
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

// undo is one journal entry: a slot, its set, and the slot's tag and the
// set's recency order before a write inside the bracket. The set follows
// from the slot, but storing it spares Restore a division per entry and
// fits in what would otherwise be padding.
type undo struct {
	tag, order uint64
	slot, set  uint32
}

// prewarm is one lazily applied Prewarm: n consecutive lines starting at
// line number first.
type prewarm struct {
	first, n uint64
}

// New builds a cache from cfg. It panics on invalid geometry: profiles are
// static data fixed at compile time, so a bad one is a programming error.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	ways := uint64(cfg.Ways)
	c := &Cache{
		cfg:     cfg,
		sets:    sets,
		ways:    ways,
		mru:     uint(4 * (ways - 1)),
		setMask: sets - 1,
		tags:    make([]uint64, sets*ways),
		lru:     make([]uint64, sets),
		settled: make([]uint64, (sets+63)/64),
	}
	for lb := cfg.LineSize; lb > 1; lb >>= 1 {
		c.lineBits++
	}
	var order uint64
	for w := uint64(0); w < ways; w++ {
		order |= w << (4 * w)
	}
	for i := range c.lru {
		c.lru[i] = order
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
// the statistics and the mutation generation. Line contents and recency
// orders are not copied; Save opens an undo journal on the cache instead,
// and Restore replays it, so a bracket costs in proportion to the lines
// written inside it rather than to the cache size. The CPU's memo layer
// brackets its canonical block measurements with a Save/Restore pair to
// keep them side-effect-free (see internal/cpu/memo.go).
//
// The bracket's discipline: a cache has at most one open bracket (a nested
// Save panics), Restore must pair with the Save that opened it, and
// EvictFraction panics inside a bracket rather than escape the journal.
type State struct {
	stats Stats
	gen   uint64
}

var (
	errNestedSave     = errors.New("cache: Save inside an open Save/Restore bracket")
	errNoBracket      = errors.New("cache: Restore or Prewarm without an open Save/Restore bracket")
	errEvictInBracket = errors.New("cache: EvictFraction inside an open Save/Restore bracket")
)

// Save records the cache's statistics and generation into s and opens the
// undo journal: every slot write until the matching Restore is logged with
// the tag and recency order it overwrote.
func (c *Cache) Save(s *State) {
	if c.open {
		panic(errNestedSave)
	}
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
		c.lru[u.set] = u.order
	}
	c.journal = c.journal[:0]
	c.pending = prewarm{}
	c.open = false
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
// bracket. The walk is not performed here: Prewarm records the range and
// applies a set's lines, in walk order, the first time a later Access,
// Flush or Contains reaches that set. LRU state is per set, so that first
// touch finds exactly what the eager walk would have left, and sets
// nothing touches are never observed before Restore discards the range.
// One range is pending at a time: a second Prewarm in the same bracket
// first applies the earlier range to every set.
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
	c.pending = prewarm{first: base >> c.lineBits, n: n}
	c.gen += n
}

// settle applies the pending Prewarm range to set, once.
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
		c.fill(set, (p.first+k)|1<<63)
	}
}

// settleAll applies the pending Prewarm range to every set.
func (c *Cache) settleAll() {
	for set := uint64(0); set < c.sets; set++ {
		c.settle(set)
	}
}

// fill looks tag up in set and makes it the set's most recently used line,
// replacing the lowest-numbered invalid way on a miss, or the least
// recently used one when every way is valid. It returns true on hit.
func (c *Cache) fill(set, tag uint64) bool {
	base := set * c.ways
	row := c.tags[base : base+c.ways]
	free := c.ways
	// Scanning down, the last invalid way seen is the lowest-numbered one,
	// so noting it is one conditional move with no second test.
	for i := len(row) - 1; i >= 0; i-- {
		t := row[i]
		if t == tag {
			c.write(set, uint64(i), tag)
			return true
		}
		if t == 0 {
			free = uint64(i)
		}
	}
	if free == c.ways {
		free = c.lru[set] & 0xf
	}
	c.write(set, free, tag)
	return false
}

// write stores tag in one way of set and moves that way to the top of the
// set's recency order, journaling the old contents inside a bracket.
func (c *Cache) write(set, way, tag uint64) {
	slot := set*c.ways + way
	if c.open {
		c.log(set, slot)
	}
	c.tags[slot] = tag
	c.lru[set] = promote(c.lru[set], way, c.mru)
}

// log journals slot's tag and its set's recency order.
func (c *Cache) log(set, slot uint64) {
	c.journal = append(c.journal, undo{tag: c.tags[slot], order: c.lru[set], slot: uint32(slot), set: uint32(set)})
}

// nibbles has a 1 in every nibble: multiplying a way index by it copies
// the index into all sixteen nibbles of a word.
const nibbles = 0x1111_1111_1111_1111

// promote returns the recency order o with way moved to the top nibble (bit
// offset mru) and the ways that were more recent shifted down one place.
// It has no branches: XOR with way copied into every nibble zeroes way's
// own nibble, and subtracting nibbles flags the lowest zero nibble exactly
// (unused nibbles above the set's ways are zero too, but lie higher). o
// must hold each of the set's ways once, with any unused nibbles zero.
func promote(o, way uint64, mru uint) uint64 {
	x := o ^ way*nibbles
	s := uint(bits.TrailingZeros64((x-nibbles)&^x&(nibbles<<3))) &^ 3
	return o&(1<<s-1) | o>>(s+4)<<s | way<<mru
}

// Access looks up addr, filling the line on a miss. It returns true on hit.
func (c *Cache) Access(addr uint64) bool {
	set, tag := c.index(addr)
	if c.pending.n != 0 {
		c.settle(set)
	}
	c.gen++
	c.stats.Accesses++
	if c.fill(set, tag) {
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
	base := set * c.ways
	for _, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return true
		}
	}
	return false
}

// Flush evicts addr's line if present (CLFLUSH semantics) and returns
// whether a line was actually evicted. It clears the tag only; the way
// keeps its place in the recency order (see Cache).
func (c *Cache) Flush(addr uint64) bool {
	set, tag := c.index(addr)
	if c.pending.n != 0 {
		c.settle(set)
	}
	base := set * c.ways
	c.stats.Flushes++
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == tag {
			if c.open {
				c.log(set, i)
			}
			c.tags[i] = 0
			c.gen++
			return true
		}
	}
	return false
}

// EvictFraction invalidates approximately frac of all resident lines,
// choosing deterministically by position: every int(1/frac)-th slot from
// slot 0, so a fraction too small to reach a second slot evicts slot 0
// alone. A NaN or non-positive frac evicts nothing. The kernel uses it to
// model the cache pollution a context switch or interrupt handler inflicts
// on the running process's working set. Pollution is never part of a
// canonical measurement, so it panics inside a Save/Restore bracket
// instead of writing lines the journal would have to undo.
func (c *Cache) EvictFraction(frac float64) {
	if c.open {
		panic(errEvictInBracket)
	}
	if !(frac > 0) {
		return
	}
	c.gen++
	if frac >= 1 {
		clear(c.tags)
		return
	}
	// 1/frac exceeds every int once frac is tiny; any step of at least
	// len(tags) means slot 0 alone.
	step := len(c.tags)
	if inv := 1 / frac; inv < float64(step) {
		step = int(inv)
	}
	for i := 0; i < len(c.tags); i += step {
		c.tags[i] = 0
	}
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
