package pmu

import (
	"testing"

	"kleb/internal/isa"
)

// These tests pin the active-counter mask cache: every write to an
// enable-affecting MSR must leave the masks exactly consistent with the
// slow progEnabled/fixedEnabled predicates, and AddCounts must count
// through the mask identically to probing every counter.

// checkMasks verifies the cached masks against the predicate ground truth.
func checkMasks(t *testing.T, p *PMU) {
	t.Helper()
	for pi, priv := range [2]isa.Priv{isa.User, isa.Kernel} {
		var wantProg, wantFixed uint8
		for i := 0; i < NumProgrammable; i++ {
			if _, ok := p.table.Lookup(p.evtsel[i]); ok && p.progEnabled(i, priv) {
				wantProg |= 1 << uint(i)
			}
		}
		for i := 0; i < NumFixed; i++ {
			if p.fixedEnabled(i, priv) {
				wantFixed |= 1 << uint(i)
			}
		}
		if p.activeProg[pi] != wantProg {
			t.Errorf("activeProg[%v] = %08b, want %08b", priv, p.activeProg[pi], wantProg)
		}
		if p.activeFixed[pi] != wantFixed {
			t.Errorf("activeFixed[%v] = %08b, want %08b", priv, p.activeFixed[pi], wantFixed)
		}
	}
}

func TestActiveMaskTracksMSRWrites(t *testing.T) {
	p := testPMU()
	checkMasks(t, p) // power-on: everything disabled

	// Program PMC0 (user) and PMC2 (kernel), enable globally one at a time.
	enc := Encoding{EventSel: 0x2E, Umask: 0x41}
	must(p.WriteMSR(MSRPerfEvtSel0, enc.Sel(SelUsr|SelEn)))
	checkMasks(t, p) // local enable without global: still inactive
	must(p.WriteMSR(MSRGlobalCtrl, 1))
	checkMasks(t, p)
	must(p.WriteMSR(MSRPerfEvtSel0+2, Encoding{EventSel: 0x0B, Umask: 0x01}.Sel(SelOS|SelEn)))
	must(p.WriteMSR(MSRGlobalCtrl, 1|1<<2))
	checkMasks(t, p)

	// An encoding the table cannot resolve must stay out of the mask even
	// though its enable bits are set.
	must(p.WriteMSR(MSRPerfEvtSel0+1, Encoding{EventSel: 0xEE, Umask: 0xEE}.Sel(SelUsr|SelEn)))
	must(p.WriteMSR(MSRGlobalCtrl, 1|1<<1|1<<2))
	checkMasks(t, p)

	// Fixed counters on, then global disable wipes everything.
	must(p.WriteMSR(MSRFixedCtrCtrl, FixedUsr|FixedOS<<4))
	must(p.WriteMSR(MSRGlobalCtrl, 1|1<<2|(1|1<<1)<<32))
	checkMasks(t, p)
	must(p.WriteMSR(MSRGlobalCtrl, 0))
	checkMasks(t, p)
}

func TestAddCountsThroughMask(t *testing.T) {
	p := testPMU()
	programLLCMisses(p, SelUsr)
	must(p.WriteMSR(MSRFixedCtrCtrl, FixedUsr))
	must(p.WriteMSR(MSRGlobalCtrl, 1|1<<32))

	var c isa.Counts
	c[isa.EvLLCMisses] = 41
	c[isa.EvInstructions] = 1000
	p.AddCounts(&c, isa.User)
	p.AddCounts(&c, isa.Kernel) // kernel not enabled anywhere: must not count
	if got, _ := p.ReadMSR(MSRPmc0); got != 41 {
		t.Errorf("PMC0 = %d, want 41", got)
	}
	if got, _ := p.ReadMSR(MSRFixedCtr0); got != 1000 {
		t.Errorf("FIXED0 = %d, want 1000", got)
	}
}

// BenchmarkAddCountsTwoActive is the monitored-counter feed: two
// programmable counters plus one fixed counter live (the K-LEB shape).
func BenchmarkAddCountsTwoActive(b *testing.B) {
	p := testPMU()
	must(p.WriteMSR(MSRPerfEvtSel0, Encoding{EventSel: 0x2E, Umask: 0x41}.Sel(SelUsr|SelEn)))
	must(p.WriteMSR(MSRPerfEvtSel0+1, Encoding{EventSel: 0x0B, Umask: 0x01}.Sel(SelUsr|SelEn)))
	must(p.WriteMSR(MSRFixedCtrCtrl, FixedUsr))
	must(p.WriteMSR(MSRGlobalCtrl, 1|1<<1|1<<32))
	var c isa.Counts
	c[isa.EvLLCMisses] = 17
	c[isa.EvLoads] = 250
	c[isa.EvInstructions] = 1000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AddCounts(&c, isa.User)
	}
}

// BenchmarkAddCountsAllDisabled is the unmonitored stretch every work
// slice pays: nothing enabled, the call must be near-free.
func BenchmarkAddCountsAllDisabled(b *testing.B) {
	p := testPMU()
	var c isa.Counts
	c[isa.EvLLCMisses] = 17
	c[isa.EvInstructions] = 1000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AddCounts(&c, isa.User)
	}
}
