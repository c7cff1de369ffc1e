package cpu

// TLB is a small set-associative data TLB over 4KB pages with true-LRU
// replacement. Misses model the page-walk latency added to the triggering
// access and feed the DTLB_LOAD_MISSES event, so TLB-thrashing access
// patterns (huge random footprints) are visible to the monitoring tools
// exactly like their cache behaviour is.
type TLB struct {
	tags  []uint64
	ages  []uint64
	stamp uint64

	misses uint64
}

// The TLB's geometry and miss cost.
const (
	tlbEntries = 64
	tlbWays    = 4
	tlbSets    = tlbEntries / tlbWays // a power of two
	// tlbPageBits is log2 of the page size: 4KB pages.
	tlbPageBits = 12
	// tlbWalkPenalty is the page-walk penalty per miss, in cycles.
	tlbWalkPenalty = 30
)

func newTLB() *TLB {
	return &TLB{
		tags: make([]uint64, tlbEntries),
		ages: make([]uint64, tlbEntries),
	}
}

// access looks up the page containing addr; returns true on hit.
func (t *TLB) access(page uint64) bool {
	set := page & (tlbSets - 1)
	tag := page | 1<<63
	base := set * tlbWays
	t.stamp++
	victim := base
	oldest := ^uint64(0)
	for i := base; i < base+tlbWays; i++ {
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
