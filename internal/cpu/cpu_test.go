package cpu

import (
	"testing"
	"testing/quick"

	"kleb/internal/cache"
	"kleb/internal/isa"
	"kleb/internal/ktime"
	"kleb/internal/pmu"
)

func testConfig() Config {
	return Config{
		Freq:              ktime.MHz(2670),
		BaseCPI:           0.5,
		BranchMissPenalty: 15,
		FlushCycles:       50,
		PrefetchMemCycles: 30,
		Hierarchy: cache.HierarchyConfig{
			L1D:              cache.Config{Name: "L1D", Size: 32 << 10, LineSize: 64, Ways: 8, LatencyCycles: 4},
			L2:               cache.Config{Name: "L2", Size: 256 << 10, LineSize: 64, Ways: 8, LatencyCycles: 10},
			LLC:              cache.Config{Name: "LLC", Size: 4 << 20, LineSize: 64, Ways: 16, LatencyCycles: 38},
			MemLatencyCycles: 200,
		},
		MaxSimAccesses: 512,
	}
}

func testCore(seed uint64) *Core {
	return New(testConfig(), pmu.New(nil), ktime.NewRand(seed))
}

func TestExecuteConservesDeclaredCounts(t *testing.T) {
	c := testCore(1)
	b := isa.Block{
		Instr: 100_000, Loads: 30_000, Stores: 10_000, Branches: 8_000,
		MulOps: 5_000, FPOps: 12_000,
		Mem:  isa.MemPattern{Base: 0x1000_0000, Footprint: 64 << 10, Stride: 8},
		Priv: isa.User,
	}
	r := c.Execute(b)
	if r.Counts[isa.EvInstructions] != b.Instr ||
		r.Counts[isa.EvLoads] != b.Loads ||
		r.Counts[isa.EvStores] != b.Stores ||
		r.Counts[isa.EvBranches] != b.Branches ||
		r.Counts[isa.EvMulOps] != b.MulOps ||
		r.Counts[isa.EvFPOps] != b.FPOps {
		t.Errorf("declared counts not preserved: %+v", r.Counts)
	}
	if r.Priv != isa.User {
		t.Error("privilege lost")
	}
	if r.Time == 0 {
		t.Error("execution must take time")
	}
	minTime := c.Config().Freq.Duration(uint64(float64(b.Instr) * c.Config().BaseCPI))
	if r.Time < minTime {
		t.Errorf("time %v below pipeline minimum %v", r.Time, minTime)
	}
}

func TestWarmCacheRunsFaster(t *testing.T) {
	c := testCore(2)
	b := isa.Block{
		Instr: 50_000, Loads: 20_000,
		Mem: isa.MemPattern{Base: 0x2000_0000, Footprint: 16 << 10, Stride: 8},
	}
	cold := c.Execute(b)
	warm := c.Execute(b)
	if warm.Time >= cold.Time {
		t.Errorf("second pass over a cached footprint should be faster: cold=%v warm=%v", cold.Time, warm.Time)
	}
	if warm.Counts[isa.EvLLCMisses] >= cold.Counts[isa.EvLLCMisses] &&
		cold.Counts[isa.EvLLCMisses] > 0 {
		t.Error("warm pass should have fewer LLC misses")
	}
}

func TestLargerFootprintMoreMisses(t *testing.T) {
	small := testCore(3)
	large := testCore(3)
	mk := func(fp uint64) isa.Block {
		return isa.Block{
			Instr: 200_000, Loads: 80_000,
			Mem: isa.MemPattern{Base: 0x3000_0000, Footprint: fp, Stride: 8, RandomFrac: 0.3},
		}
	}
	var sMiss, lMiss uint64
	for i := 0; i < 20; i++ {
		sMiss += small.Execute(mk(64 << 10)).Counts[isa.EvLLCMisses]
		lMiss += large.Execute(mk(64 << 20)).Counts[isa.EvLLCMisses]
	}
	if lMiss <= sMiss*2 {
		t.Errorf("64MB footprint should miss far more than 64KB: small=%d large=%d", sMiss, lMiss)
	}
}

func TestMispredictRateDrivesMisses(t *testing.T) {
	quiet := testCore(4)
	noisy := testCore(4)
	mk := func(rate float64) isa.Block {
		return isa.Block{
			Instr: 100_000, Branches: 20_000, BranchMispredictRate: rate,
			Mem: isa.MemPattern{Base: 0x4000_0000, Footprint: 4096, Stride: 8},
		}
	}
	var q, n uint64
	for i := 0; i < 10; i++ {
		q += quiet.Execute(mk(0.001)).Counts[isa.EvBranchMisses]
		n += noisy.Execute(mk(0.25)).Counts[isa.EvBranchMisses]
	}
	if n < q*3 {
		t.Errorf("hard branches should mispredict much more: quiet=%d noisy=%d", q, n)
	}
}

func TestFlushReloadPairsMissLLC(t *testing.T) {
	c := testCore(5)
	probe := isa.MemPattern{Base: 0x5000_0000, Footprint: 256 * 4096, Stride: 4096}
	// Warm the probe lines first.
	c.Execute(isa.Block{Instr: 10_000, Loads: 256, Mem: probe})
	b := isa.Block{Instr: 20_000, Loads: 2_000, Flushes: 2_000, Mem: probe}
	r := c.Execute(b)
	if r.Counts[isa.EvLLCMisses] < 2_000 {
		t.Errorf("each flush+reload pair must miss: got %d misses for 2000 pairs",
			r.Counts[isa.EvLLCMisses])
	}
	if r.Counts[isa.EvCacheFlushes] != 2_000 {
		t.Errorf("flush count: %d", r.Counts[isa.EvCacheFlushes])
	}
}

func TestPrefetchHidesStreamLatencyButKeepsMisses(t *testing.T) {
	cfgPf := testConfig()
	cfgNo := testConfig()
	cfgNo.PrefetchMemCycles = 0
	pf := New(cfgPf, pmu.New(nil), ktime.NewRand(6))
	no := New(cfgNo, pmu.New(nil), ktime.NewRand(6))
	b := isa.Block{
		Instr: 200_000, Loads: 100_000,
		Mem: isa.MemPattern{Base: 0x6000_0000, Footprint: 64 << 20, Stride: 8},
	}
	rp := pf.Execute(b)
	rn := no.Execute(b)
	if rp.Time >= rn.Time {
		t.Errorf("prefetched stream should be faster: with=%v without=%v", rp.Time, rn.Time)
	}
	ratio := float64(rp.Counts[isa.EvLLCMisses]) / float64(rn.Counts[isa.EvLLCMisses])
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("prefetch must not change miss counts much: ratio %.2f", ratio)
	}
}

func TestCostedSplitConservation(t *testing.T) {
	c := testCore(7)
	b := isa.Block{
		Instr: 500_000, Loads: 150_000, Stores: 50_000, Branches: 40_000, MulOps: 60_000,
		Mem: isa.MemPattern{Base: 0x7000_0000, Footprint: 1 << 20, Stride: 8},
	}
	whole := c.Execute(b)
	prop := func(frac8 uint8) bool {
		budget := ktime.Duration(uint64(whole.Time) * uint64(frac8) / 255)
		tail := whole
		head := tail.Cut(budget)
		if head.Time+tail.Time != whole.Time {
			return false
		}
		for ev := isa.Event(0); ev < isa.NumEvents; ev++ {
			if head.Counts[ev]+tail.Counts[ev] != whole.Counts[ev] {
				return false
			}
		}
		return head.Time <= budget || budget >= whole.Time
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCostedSplitEdges(t *testing.T) {
	w := Costed{Time: 100, Priv: isa.Kernel}
	w.Counts[isa.EvInstructions] = 1000

	tail := w
	if head := tail.Cut(200); head != w || tail != (Costed{Priv: isa.Kernel}) {
		t.Errorf("budget beyond work should return whole and keep privilege: head %+v tail %+v", head, tail)
	}
	tail = w
	head := tail.Cut(0)
	if head.Time != 0 || head.Counts != (isa.Counts{}) || tail.Time != 100 || tail.Counts != w.Counts {
		t.Error("zero budget should defer everything")
	}
	if head.Priv != isa.Kernel || tail.Priv != isa.Kernel {
		t.Error("cut must preserve privilege")
	}
}

// TestCostedCutScale checks each event's share of the head: count*budget/time
// rounded to nearest, with the tail keeping the rest.
func TestCostedCutScale(t *testing.T) {
	w := Costed{Time: 100, Priv: isa.User}
	w.Counts[isa.EvInstructions] = 1000
	w.Counts[isa.EvLoads] = 1001 // 500.5 rounds up
	w.Counts[isa.EvStores] = 3   // below the time: 1.5 rounds up

	tail := w
	head := tail.Cut(50)
	want := map[isa.Event][2]uint64{
		isa.EvInstructions: {500, 500},
		isa.EvLoads:        {501, 500},
		isa.EvStores:       {2, 1},
	}
	for ev, ht := range want {
		if head.Counts[ev] != ht[0] || tail.Counts[ev] != ht[1] {
			t.Errorf("half budget %v: head %d tail %d, want %d and %d", ev, head.Counts[ev], tail.Counts[ev], ht[0], ht[1])
		}
	}
	if head.Time != 50 || tail.Time != 50 || head.Priv != isa.User || tail.Priv != isa.User {
		t.Errorf("half budget: head %+v tail %+v", head, tail)
	}

	tail = w
	if head := tail.Cut(w.Time); head != w || tail != (Costed{Priv: isa.User}) {
		t.Errorf("budget equal to work should return whole: head %+v tail %+v", head, tail)
	}
}

func TestContextSwitchPollutesCaches(t *testing.T) {
	c := testCore(8)
	b := isa.Block{
		Instr: 50_000, Loads: 25_000,
		Mem: isa.MemPattern{Base: 0x8000_0000, Footprint: 16 << 10, Stride: 8},
	}
	c.Execute(b) // warm
	warm := c.Execute(b)
	c.OnContextSwitch(1.0, 1.0, 1.0) // total pollution
	polluted := c.Execute(b)
	if polluted.Time <= warm.Time {
		t.Errorf("pollution should slow the next block: warm=%v polluted=%v", warm.Time, polluted.Time)
	}
}

func TestDeterministicExecution(t *testing.T) {
	run := func() Costed {
		c := testCore(99)
		var last Costed
		for i := 0; i < 5; i++ {
			last = c.Execute(isa.Block{
				Instr: 100_000, Loads: 40_000, Branches: 10_000, BranchMispredictRate: 0.1,
				Mem: isa.MemPattern{Base: 0x9000_0000, Footprint: 1 << 20, Stride: 8, RandomFrac: 0.2},
			})
		}
		return last
	}
	a, b := run(), run()
	if a != b {
		t.Error("same seed should execute identically")
	}
}

func TestEmptyBlock(t *testing.T) {
	c := testCore(10)
	r := c.Execute(isa.Block{})
	if r.Time != 0 || r.Counts != (isa.Counts{}) {
		t.Errorf("empty block produced work: %+v", r)
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSimAccesses = 0
	cfg.PredictorBits = 0
	c := New(cfg, pmu.New(nil), ktime.NewRand(1))
	if c.Config().MaxSimAccesses == 0 || c.Config().PredictorBits == 0 {
		t.Error("constructor defaults not applied")
	}
}

func TestTLBMissesTrackFootprint(t *testing.T) {
	// 64-entry TLB over 4KB pages covers 256KB: a 64KB working set hits
	// after warm-up, a 16MB random working set thrashes.
	small := testCore(20)
	large := testCore(20)
	mk := func(fp uint64, rf float64) isa.Block {
		return isa.Block{
			Instr: 200_000, Loads: 80_000,
			Mem: isa.MemPattern{Base: 0xA000_0000, Footprint: fp, Stride: 8, RandomFrac: rf},
		}
	}
	var sm, lg uint64
	for i := 0; i < 10; i++ {
		sm += small.Execute(mk(64<<10, 0)).Counts[isa.EvDTLBMisses]
		lg += large.Execute(mk(16<<20, 0.8)).Counts[isa.EvDTLBMisses]
	}
	if lg < 20*sm {
		t.Errorf("TLB thrashing not visible: small=%d large=%d", sm, lg)
	}
	if large.TLBMisses() == 0 {
		t.Error("cumulative TLB miss counter empty")
	}
}

func TestTLBFlushOnContextSwitch(t *testing.T) {
	c := testCore(21)
	b := isa.Block{
		Instr: 50_000, Loads: 25_000,
		Mem: isa.MemPattern{Base: 0xB000_0000, Footprint: 128 << 10, Stride: 8},
	}
	c.Execute(b) // warm translations
	warm := c.Execute(b).Counts[isa.EvDTLBMisses]
	c.OnContextSwitch(0, 0, 0) // address-space change flushes the TLB
	cold := c.Execute(b).Counts[isa.EvDTLBMisses]
	if cold <= warm {
		t.Errorf("context switch should flush the TLB: warm=%d cold=%d", warm, cold)
	}
}
