package cpu

// TLB is a small set-associative data TLB over 4KB pages with true-LRU
// replacement. Misses model the page-walk latency added to the triggering
// access and feed the DTLB_LOAD_MISSES event, so TLB-thrashing access
// patterns (huge random footprints) are visible to the monitoring tools
// exactly like their cache behaviour is.
type TLB struct {
	entriesPerSet int
	sets          uint64
	setMask       uint64
	tags          []uint64
	ages          []uint64
	stamp         uint64

	misses uint64
}

// TLBConfig sizes the structure.
type TLBConfig struct {
	// Entries is the total capacity (power-of-two sets result).
	Entries int
	// Ways is the associativity.
	Ways int
	// PageBits is log2 of the page size (default 12 → 4KB).
	PageBits uint
	// WalkCycles is the page-walk penalty per miss.
	WalkCycles uint64
}

func (c *TLBConfig) defaults() {
	if c.Entries == 0 {
		c.Entries = 64
	}
	if c.Ways == 0 {
		c.Ways = 4
	}
	if c.PageBits == 0 {
		c.PageBits = 12
	}
	if c.WalkCycles == 0 {
		c.WalkCycles = 30
	}
}

// pageBits is kept on the core config; the TLB stores only geometry.
func newTLB(cfg TLBConfig) *TLB {
	cfg.defaults()
	sets := uint64(cfg.Entries / cfg.Ways)
	// Clamp to a power of two set count.
	for sets&(sets-1) != 0 {
		sets--
	}
	if sets == 0 {
		sets = 1
	}
	return &TLB{
		entriesPerSet: cfg.Ways,
		sets:          sets,
		setMask:       sets - 1,
		tags:          make([]uint64, sets*uint64(cfg.Ways)),
		ages:          make([]uint64, sets*uint64(cfg.Ways)),
	}
}

// access looks up the page containing addr; returns true on hit.
func (t *TLB) access(page uint64) bool {
	set := page & t.setMask
	tag := page | 1<<63
	base := set * uint64(t.entriesPerSet)
	t.stamp++
	victim := base
	oldest := ^uint64(0)
	for i := base; i < base+uint64(t.entriesPerSet); i++ {
		if t.tags[i] == tag {
			t.ages[i] = t.stamp
			return true
		}
		if t.ages[i] < oldest {
			oldest = t.ages[i]
			victim = i
		}
	}
	t.misses++
	t.tags[victim] = tag
	t.ages[victim] = t.stamp
	return false
}

// flush clears all translations (a context switch with an address-space
// change).
func (t *TLB) flush() {
	for i := range t.tags {
		t.tags[i] = 0
		t.ages[i] = 0
	}
}

// Misses returns the cumulative miss count.
func (t *TLB) Misses() uint64 { return t.misses }

// tlbState is a deep copy of the TLB's mutable state; the backing slices
// are recycled across saves, so the core's long-lived snapshot copies the
// few dozen entries per probe without allocating.
type tlbState struct {
	tags, ages []uint64
	stamp      uint64
	misses     uint64
}

// save captures the TLB's complete mutable state into s.
func (t *TLB) save(s *tlbState) {
	s.tags = append(s.tags[:0], t.tags...) //klebvet:allow hotalloc -- grows only on the first save into a tlbState; the core's long-lived snapshot reuses the backing array on every later probe
	s.ages = append(s.ages[:0], t.ages...) //klebvet:allow hotalloc -- same recycled backing array as tags above
	s.stamp = t.stamp
	s.misses = t.misses
}

// restore rewinds the TLB to a state captured by save.
func (t *TLB) restore(s *tlbState) {
	copy(t.tags, s.tags)
	copy(t.ages, s.ages)
	t.stamp = s.stamp
	t.misses = s.misses
}
