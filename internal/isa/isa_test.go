package isa

import (
	"testing"
	"testing/quick"
)

func TestEventNamesRoundTrip(t *testing.T) {
	for ev := Event(0); ev < NumEvents; ev++ {
		name := ev.String()
		if name == "" {
			t.Fatalf("event %d has empty name", ev)
		}
		back, ok := EventByName(name)
		if !ok || back != ev {
			t.Errorf("round trip failed for %v", ev)
		}
	}
	if _, ok := EventByName("NO_SUCH_EVENT"); ok {
		t.Error("bogus name resolved")
	}
	if got := Event(200).String(); got != "Event(200)" {
		t.Errorf("out-of-range String: %q", got)
	}
}

func TestEventByNameLenientMatching(t *testing.T) {
	cases := []struct {
		in   string
		want Event
	}{
		// Case-insensitive canonical names.
		{"llc_misses", EvLLCMisses},
		{"Llc_Misses", EvLLCMisses},
		{"inst_retired", EvInstructions},
		{"mem_inst_retired.loads", EvLoads},
		// Surrounding whitespace (e.g. "a, b" comma splits).
		{"  LLC_MISSES ", EvLLCMisses},
		{"\tINST_RETIRED\n", EvInstructions},
		// Perf-style aliases.
		{"instructions", EvInstructions},
		{"cycles", EvCycles},
		{"ref_cycles", EvRefCycles},
		{"loads", EvLoads},
		{"stores", EvStores},
		{"branches", EvBranches},
		{"branch_misses", EvBranchMisses},
		{"cache_refs", EvLLCRefs},
		{"cache_misses", EvLLCMisses},
		{"l1d_misses", EvL1DMisses},
		{"l2_misses", EvL2Misses},
		{"flops", EvFPOps},
		{"clflush", EvCacheFlushes},
		{"dtlb_misses", EvDTLBMisses},
		{" llc_refs ", EvLLCRefs},
	}
	for _, c := range cases {
		got, ok := EventByName(c.in)
		if !ok || got != c.want {
			t.Errorf("EventByName(%q) = %v, %v; want %v", c.in, got, ok, c.want)
		}
	}
	for _, bogus := range []string{"", "  ", "llc", "misses", "LLC MISSES"} {
		if ev, ok := EventByName(bogus); ok {
			t.Errorf("EventByName(%q) resolved to %v; want no match", bogus, ev)
		}
	}
}

func TestCountsAdd(t *testing.T) {
	var a, b Counts
	a[EvLoads] = 10
	b[EvLoads] = 3
	b[EvStores] = 5
	a.Add(b)
	if a[EvLoads] != 13 || a[EvStores] != 5 {
		t.Errorf("Add: %v", a)
	}
}

func randomBlock(instr uint32, loads, stores, branches, muls uint16) Block {
	n := uint64(instr)
	return Block{
		Instr:    n,
		Loads:    uint64(loads) % (n + 1),
		Stores:   uint64(stores) % (n + 1),
		Branches: uint64(branches) % (n + 1),
		MulOps:   uint64(muls) % (n + 1),
		FPOps:    uint64(muls) * 2 % (n + 1),
		Flushes:  uint64(branches) % 64,
	}
}

func TestBlockSplitConservesWork(t *testing.T) {
	prop := func(instr uint32, loads, stores, branches, muls uint16, num8, den8 uint8) bool {
		b := randomBlock(instr|1, loads, stores, branches, muls)
		den := uint64(den8) + 2
		num := uint64(num8) % den
		head, tail := b.Split(num, den)
		return head.Instr+tail.Instr == b.Instr &&
			head.Loads+tail.Loads == b.Loads &&
			head.Stores+tail.Stores == b.Stores &&
			head.Branches+tail.Branches == b.Branches &&
			head.MulOps+tail.MulOps == b.MulOps &&
			head.FPOps+tail.FPOps == b.FPOps &&
			head.Flushes+tail.Flushes == b.Flushes
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBlockSplitEdges(t *testing.T) {
	b := Block{Instr: 100, Loads: 40}
	head, tail := b.Split(0, 10)
	if head.Instr != 0 || tail.Instr != 100 {
		t.Errorf("Split(0): head=%d tail=%d", head.Instr, tail.Instr)
	}
	head, tail = b.Split(10, 10)
	if head.Instr != 100 || !tail.Empty() {
		t.Errorf("Split(all): head=%d tailEmpty=%v", head.Instr, tail.Empty())
	}
	head, tail = b.Split(5, 0)
	if head.Instr != 100 || !tail.Empty() {
		t.Error("Split with zero denominator should return whole block")
	}
}

func TestBlockSplitPreservesMetadata(t *testing.T) {
	b := Block{
		Instr: 100, Priv: Kernel,
		BranchMispredictRate: 0.25,
		Mem:                  MemPattern{Base: 42, Footprint: 4096, Stride: 8, RandomFrac: 0.5},
	}
	head, tail := b.Split(1, 2)
	for _, part := range []Block{head, tail} {
		if part.Priv != Kernel || part.BranchMispredictRate != 0.25 || part.Mem != b.Mem {
			t.Error("Split lost block metadata")
		}
	}
}

func TestBlockMemOpsAndEmpty(t *testing.T) {
	b := Block{Loads: 3, Stores: 4}
	if b.MemOps() != 7 {
		t.Errorf("MemOps: %d", b.MemOps())
	}
	if (Block{}).Empty() != true {
		t.Error("zero block should be empty")
	}
	if (Block{Flushes: 1}).Empty() {
		t.Error("flush-only block is not empty")
	}
	if (Block{Instr: 1}).Empty() {
		t.Error("block with instructions is not empty")
	}
}

func TestPrivString(t *testing.T) {
	if User.String() != "user" || Kernel.String() != "kernel" {
		t.Error("Priv.String wrong")
	}
}
