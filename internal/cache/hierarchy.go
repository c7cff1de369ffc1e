package cache

// HierarchyConfig describes a three-level data cache hierarchy plus the
// memory latency behind it.
type HierarchyConfig struct {
	L1D, L2, LLC Config
	// MemLatencyCycles is the DRAM access latency charged on an LLC miss.
	MemLatencyCycles uint64
}

// AccessResult reports how deep a single access travelled.
type AccessResult struct {
	L1Hit, L2Hit, LLCHit bool
	// Cycles is the total latency of the access under the simple serial
	// lookup model.
	Cycles uint64
}

// Hierarchy is an inclusive three-level hierarchy. Lookups proceed L1→L2→LLC
// and fill all levels on the way back, which is what the LLC event counters
// on Nehalem-era parts effectively observe: LLC_REFERENCES are L2 misses
// arriving at the LLC, LLC_MISSES are those that continue to memory.
type Hierarchy struct {
	cfg HierarchyConfig
	l1d *Cache
	l2  *Cache
	llc *Cache
	// ownsLLC records that the hierarchy allocated llc itself, so Release
	// may release it; a shared LLC belongs to whoever passed it in.
	ownsLLC bool
}

// NewHierarchy builds the three levels from cfg.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return NewHierarchyShared(cfg, nil)
}

// NewHierarchyShared builds per-core L1/L2 levels in front of an externally
// provided last-level cache. Multiple cores' hierarchies constructed around
// the same LLC contend for its capacity — the substrate for co-location
// studies. A nil llc allocates a private one from cfg.
func NewHierarchyShared(cfg HierarchyConfig, llc *Cache) *Hierarchy {
	owns := llc == nil
	if owns {
		llc = New(cfg.LLC)
	} else {
		cfg.LLC = llc.Config()
	}
	return &Hierarchy{
		cfg:     cfg,
		l1d:     New(cfg.L1D),
		l2:      New(cfg.L2),
		llc:     llc,
		ownsLLC: owns,
	}
}

// Release releases the levels the hierarchy owns (see Cache.Release): L1D
// and L2 always, the LLC only when NewHierarchyShared allocated it. A
// shared LLC is released once, by its owner, after every hierarchy around
// it is done.
func (h *Hierarchy) Release() {
	h.l1d.Release()
	h.l2.Release()
	if h.ownsLLC {
		h.llc.Release()
	}
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// L1D returns the first-level data cache.
func (h *Hierarchy) L1D() *Cache { return h.l1d }

// L2 returns the mid-level cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// LLC returns the last-level cache.
func (h *Hierarchy) LLC() *Cache { return h.llc }

// Access performs one data access at addr and returns where it hit and the
// latency incurred.
func (h *Hierarchy) Access(addr uint64) AccessResult {
	var r AccessResult
	r.Cycles = h.cfg.L1D.LatencyCycles
	if h.l1d.Access(addr) {
		r.L1Hit = true
		return r
	}
	r.Cycles += h.cfg.L2.LatencyCycles
	if h.l2.Access(addr) {
		r.L2Hit = true
		return r
	}
	r.Cycles += h.cfg.LLC.LatencyCycles
	if h.llc.Access(addr) {
		r.LLCHit = true
		return r
	}
	r.Cycles += h.cfg.MemLatencyCycles
	return r
}

// Flush evicts addr's line from every level (CLFLUSH reaches the point of
// coherence). It returns true if the line was present in the LLC.
func (h *Hierarchy) Flush(addr uint64) bool {
	h.l1d.Flush(addr)
	h.l2.Flush(addr)
	return h.llc.Flush(addr)
}

// Pollute models the cache damage done by foreign execution (a context
// switch to another process, or a long interrupt handler): the inner levels
// lose a large share of their contents, the LLC a smaller one.
func (h *Hierarchy) Pollute(l1Frac, l2Frac, llcFrac float64) {
	h.l1d.EvictFraction(l1Frac)
	h.l2.EvictFraction(l2Frac)
	h.llc.EvictFraction(llcFrac)
}

// ResetStats clears all per-level statistics.
func (h *Hierarchy) ResetStats() {
	h.l1d.ResetStats()
	h.l2.ResetStats()
	h.llc.ResetStats()
}
