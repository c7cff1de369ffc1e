package pmu

import (
	"strings"
	"testing"
	"testing/quick"

	"kleb/internal/isa"
)

func testTable() *EventTable {
	return TableFromClasses("test", map[Encoding]isa.Event{
		{EventSel: 0x2E, Umask: 0x41}: isa.EvLLCMisses,
		{EventSel: 0x2E, Umask: 0x4F}: isa.EvLLCRefs,
		{EventSel: 0x0B, Umask: 0x01}: isa.EvLoads,
		{EventSel: 0x0B, Umask: 0x02}: isa.EvStores,
	})
}

func testPMU() *PMU { return New(testTable()) }

// programLLCMisses programs PMC0 to count LLC misses at the given privilege
// flags and enables it globally.
func programLLCMisses(p *PMU, flags uint64) {
	enc := Encoding{EventSel: 0x2E, Umask: 0x41}
	must(p.WriteMSR(MSRPerfEvtSel0, enc.Sel(flags|SelEn)))
	must(p.WriteMSR(MSRGlobalCtrl, 1))
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func TestMSRRoundTrip(t *testing.T) {
	p := testPMU()
	addrs := []uint32{MSRPmc0, MSRPmc0 + 3, MSRPerfEvtSel0, MSRFixedCtr0, MSRFixedCtr0 + 2, MSRFixedCtrCtrl, MSRGlobalCtrl}
	for i, addr := range addrs {
		val := uint64(i*1000 + 7)
		if err := p.WriteMSR(addr, val); err != nil {
			t.Fatalf("write %#x: %v", addr, err)
		}
		got, err := p.ReadMSR(addr)
		if err != nil {
			t.Fatalf("read %#x: %v", addr, err)
		}
		if got != val {
			t.Errorf("MSR %#x: wrote %d read %d", addr, val, got)
		}
	}
}

func TestUnknownMSR(t *testing.T) {
	p := testPMU()
	if err := p.WriteMSR(0x9999, 1); err == nil {
		t.Error("write to unknown MSR should fail")
	}
	if _, err := p.ReadMSR(0x9999); err == nil {
		t.Error("read of unknown MSR should fail")
	}
	if err := p.WriteMSR(MSRGlobalStatus, 1); err == nil {
		t.Error("GLOBAL_STATUS is read-only")
	}
}

func TestCounterMasked48Bits(t *testing.T) {
	p := testPMU()
	must(p.WriteMSR(MSRPmc0, ^uint64(0)))
	got, _ := p.ReadMSR(MSRPmc0)
	if got != CounterMask() {
		t.Errorf("counter not masked to 48 bits: %#x", got)
	}
}

func TestPrivilegeFiltering(t *testing.T) {
	var c isa.Counts
	c[isa.EvLLCMisses] = 100

	p := testPMU()
	programLLCMisses(p, SelUsr)
	p.AddCounts(&c, isa.User)
	p.AddCounts(&c, isa.Kernel) // must be ignored
	got, _ := p.ReadMSR(MSRPmc0)
	if got != 100 {
		t.Errorf("USR-only counter: got %d, want 100", got)
	}

	p = testPMU()
	programLLCMisses(p, SelOS)
	p.AddCounts(&c, isa.User) // ignored
	p.AddCounts(&c, isa.Kernel)
	got, _ = p.ReadMSR(MSRPmc0)
	if got != 100 {
		t.Errorf("OS-only counter: got %d, want 100", got)
	}

	p = testPMU()
	programLLCMisses(p, SelUsr|SelOS)
	p.AddCounts(&c, isa.User)
	p.AddCounts(&c, isa.Kernel)
	got, _ = p.ReadMSR(MSRPmc0)
	if got != 200 {
		t.Errorf("USR+OS counter: got %d, want 200", got)
	}
}

func TestGlobalCtrlGates(t *testing.T) {
	var c isa.Counts
	c[isa.EvLLCMisses] = 50
	p := testPMU()
	programLLCMisses(p, SelUsr)
	must(p.WriteMSR(MSRGlobalCtrl, 0)) // gate off
	p.AddCounts(&c, isa.User)
	if got, _ := p.ReadMSR(MSRPmc0); got != 0 {
		t.Errorf("gated counter counted: %d", got)
	}
	// Enable bit in evtsel also gates.
	enc := Encoding{EventSel: 0x2E, Umask: 0x41}
	must(p.WriteMSR(MSRPerfEvtSel0, enc.Sel(SelUsr))) // no SelEn
	must(p.WriteMSR(MSRGlobalCtrl, 1))
	p.AddCounts(&c, isa.User)
	if got, _ := p.ReadMSR(MSRPmc0); got != 0 {
		t.Errorf("disabled counter counted: %d", got)
	}
}

func TestFixedCounters(t *testing.T) {
	var c isa.Counts
	c[isa.EvInstructions] = 10
	c[isa.EvCycles] = 20
	c[isa.EvRefCycles] = 30

	p := testPMU()
	// Enable all three fixed counters for user counting.
	ctrl := FixedUsr | FixedUsr<<4 | FixedUsr<<8
	must(p.WriteMSR(MSRFixedCtrCtrl, ctrl))
	must(p.WriteMSR(MSRGlobalCtrl, 0x7<<32))
	p.AddCounts(&c, isa.User)
	p.AddCounts(&c, isa.Kernel) // OS bit not set
	for i, want := range []uint64{10, 20, 30} {
		got, _ := p.ReadMSR(MSRFixedCtr0 + uint32(i))
		if got != want {
			t.Errorf("fixed %d: got %d want %d", i, got, want)
		}
	}
}

func TestOverflowSetsStatusAndPMI(t *testing.T) {
	p := testPMU()
	programLLCMisses(p, SelUsr|SelInt)
	must(p.WriteMSR(MSRPmc0, OverflowInit(10)))
	fired := 0
	p.SetPMIHandler(func(counter int, fixed bool) {
		fired++
		if counter != 0 || fixed {
			t.Errorf("PMI identity: counter=%d fixed=%v", counter, fixed)
		}
	})
	var c isa.Counts
	c[isa.EvLLCMisses] = 9
	p.AddCounts(&c, isa.User)
	if fired != 0 {
		t.Fatal("PMI before overflow")
	}
	c[isa.EvLLCMisses] = 2
	p.AddCounts(&c, isa.User)
	if fired != 1 {
		t.Fatalf("PMI count %d", fired)
	}
	status, _ := p.ReadMSR(MSRGlobalStatus)
	if status&1 == 0 {
		t.Error("overflow status bit not set")
	}
	// Writing OVF_CTRL clears it.
	must(p.WriteMSR(MSRGlobalOvf, 1))
	status, _ = p.ReadMSR(MSRGlobalStatus)
	if status != 0 {
		t.Error("status not cleared")
	}
	// Counter wrapped: remaining count after overflow is 1 (9+2-10... at
	// 48-bit width: init+11 wraps to 1).
	got, _ := p.ReadMSR(MSRPmc0)
	if got != 1 {
		t.Errorf("wrapped counter: got %d want 1", got)
	}
}

func TestFixedOverflowPMI(t *testing.T) {
	p := testPMU()
	must(p.WriteMSR(MSRFixedCtrCtrl, FixedUsr|FixedPMI))
	must(p.WriteMSR(MSRGlobalCtrl, 1<<32))
	must(p.WriteMSR(MSRFixedCtr0, OverflowInit(5)))
	var fired bool
	p.SetPMIHandler(func(counter int, fixed bool) {
		fired = counter == 0 && fixed
	})
	var c isa.Counts
	c[isa.EvInstructions] = 6
	p.AddCounts(&c, isa.User)
	if !fired {
		t.Error("fixed-counter PMI not delivered")
	}
}

func TestNoPMIWithoutIntBit(t *testing.T) {
	p := testPMU()
	programLLCMisses(p, SelUsr) // no SelInt
	must(p.WriteMSR(MSRPmc0, OverflowInit(1)))
	fired := false
	p.SetPMIHandler(func(int, bool) { fired = true })
	var c isa.Counts
	c[isa.EvLLCMisses] = 5
	p.AddCounts(&c, isa.User)
	if fired {
		t.Error("PMI fired without INT bit")
	}
	if status, _ := p.ReadMSR(MSRGlobalStatus); status&1 == 0 {
		t.Error("status should still be set on overflow")
	}
}

func TestRDPMC(t *testing.T) {
	p := testPMU()
	must(p.WriteMSR(MSRPmc0+2, 777))
	must(p.WriteMSR(MSRFixedCtr0+1, 888))
	if v, err := p.RDPMC(2); err != nil || v != 777 {
		t.Errorf("RDPMC(2): %d, %v", v, err)
	}
	if v, err := p.RDPMC(1 | 1<<30); err != nil || v != 888 {
		t.Errorf("RDPMC fixed: %d, %v", v, err)
	}
	if _, err := p.RDPMC(4); err == nil {
		t.Error("out-of-range RDPMC should fail")
	}
	if _, err := p.RDPMC(3 | 1<<30); err == nil {
		t.Error("out-of-range fixed RDPMC should fail")
	}
}

func TestOverflowInit(t *testing.T) {
	if OverflowInit(0) != 0 {
		t.Error("zero period")
	}
	if OverflowInit(1) != CounterMask() {
		t.Error("period 1 should arm at mask")
	}
	if OverflowInit(CounterMask()+10) != 0 {
		t.Error("oversized period should clamp to 0")
	}
}

func TestEventTableLookups(t *testing.T) {
	tab := testTable()
	enc := Encoding{EventSel: 0x2E, Umask: 0x41}
	ev, ok := tab.Lookup(enc.Sel(SelEn | SelUsr))
	if !ok || ev != isa.EvLLCMisses {
		t.Error("Lookup failed")
	}
	back, ok := tab.EncodingFor(isa.EvLLCMisses)
	if !ok || back != enc {
		t.Error("EncodingFor failed")
	}
	if _, ok := tab.EncodingFor(isa.EvMulOps); ok {
		t.Error("absent event resolved")
	}
	if _, ok := tab.Lookup(0xFFFF); ok {
		t.Error("bogus selector resolved")
	}
}

// Property: for any sequence of count batches, the counter value equals the
// running sum modulo 2^48.
func TestCounterSumProperty(t *testing.T) {
	prop := func(batches []uint32) bool {
		p := testPMU()
		programLLCMisses(p, SelUsr)
		var sum uint64
		for _, b := range batches {
			var c isa.Counts
			c[isa.EvLLCMisses] = uint64(b)
			p.AddCounts(&c, isa.User)
			sum += uint64(b)
		}
		got, _ := p.ReadMSR(MSRPmc0)
		return got == sum&CounterMask()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEncodingSel(t *testing.T) {
	enc := Encoding{EventSel: 0xAB, Umask: 0xCD}
	sel := enc.Sel(SelUsr | SelEn)
	if sel&0xFF != 0xAB || (sel>>8)&0xFF != 0xCD {
		t.Errorf("Sel packing: %#x", sel)
	}
	if sel&SelUsr == 0 || sel&SelEn == 0 {
		t.Error("flags lost")
	}
}

func TestDecodeAndSnapshot(t *testing.T) {
	p := testPMU()
	enc := Encoding{EventSel: 0x2E, Umask: 0x41}
	sel := enc.Sel(SelUsr | SelEn)
	out := p.DecodeSel(sel)
	for _, want := range []string{"LLC_MISSES", "usr", "en", "0x2e", "0x41"} {
		if !strings.Contains(out, want) {
			t.Errorf("decode missing %q: %s", want, out)
		}
	}
	if !strings.Contains(p.DecodeSel(0xFFFF), "?") {
		t.Error("unknown encodings should decode as ?")
	}
	must(p.WriteMSR(MSRPerfEvtSel0, sel))
	must(p.WriteMSR(MSRPmc0, 42))
	snap := p.Snapshot()
	for _, want := range []string{"PMC0=42", "LLC_MISSES", "FIXED0=0", "GLOBAL_CTRL"} {
		if !strings.Contains(snap, want) {
			t.Errorf("snapshot missing %q:\n%s", want, snap)
		}
	}
}
