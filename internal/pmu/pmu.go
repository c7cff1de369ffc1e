// Package pmu models the per-core Performance Monitoring Unit at the
// register level: programmable counters controlled by IA32_PERFEVTSELx
// MSRs, fixed-function counters, global enable/status registers, 48-bit
// counter width with overflow interrupts (PMI).
//
// Keeping the real programming model matters for this reproduction: K-LEB,
// perf, PAPI and LiMiT differ precisely in *who* programs these registers,
// *when* counting is enabled around context switches, and *how* counts
// travel back to user space. All tools in this repository therefore talk to
// the same register file the way their real counterparts talk to hardware.
package pmu

import (
	"errors"
	"fmt"
	"math/bits"

	"kleb/internal/isa"
)

// MSR addresses (matching the Intel SDM for the Nehalem family onward).
const (
	MSRPmc0         uint32 = 0x0C1 // IA32_PMC0..IA32_PMC3
	MSRPerfEvtSel0  uint32 = 0x186 // IA32_PERFEVTSEL0..3
	MSRFixedCtr0    uint32 = 0x309 // IA32_FIXED_CTR0..2
	MSRFixedCtrCtrl uint32 = 0x38D // IA32_FIXED_CTR_CTRL
	MSRGlobalStatus uint32 = 0x38E // IA32_PERF_GLOBAL_STATUS
	MSRGlobalCtrl   uint32 = 0x38F // IA32_PERF_GLOBAL_CTRL
	MSRGlobalOvf    uint32 = 0x390 // IA32_PERF_GLOBAL_OVF_CTRL

	// Uncore (IMC) block, Nehalem-style MSR-programmed uncore PMU.
	MSRUncGlobalCtrl uint32 = 0x391 // MSR_UNCORE_PERF_GLOBAL_CTRL
	MSRUncPmc0       uint32 = 0x3B0 // MSR_UNCORE_PMC0..1
	MSRUncEvtSel0    uint32 = 0x3C0 // MSR_UNCORE_PERFEVTSEL0..1
)

// IA32_PERFEVTSEL bit fields.
const (
	SelUsr uint64 = 1 << 16 // count at CPL > 0
	SelOS  uint64 = 1 << 17 // count at CPL 0
	SelInt uint64 = 1 << 20 // PMI on overflow
	SelEn  uint64 = 1 << 22 // counter enable
)

// Fixed-counter control nibble bits (per counter, 4 bits each).
const (
	FixedOS  uint64 = 1 << 0
	FixedUsr uint64 = 1 << 1
	FixedPMI uint64 = 1 << 3
)

// CounterWidth is the architectural counter width in bits.
const CounterWidth = 48

// counterMask keeps counters within CounterWidth bits.
const counterMask = (uint64(1) << CounterWidth) - 1

// NumProgrammable and NumFixed match the modern Intel layout the paper
// describes: four programmable plus three fixed counters. NumUncore is the
// modeled IMC uncore counter count — enough for one read+write bandwidth
// pair, the opening move toward a full uncore vocabulary.
const (
	NumProgrammable = 4
	NumFixed        = 3
	NumUncore       = 2
)

// Fixed-function counter meanings, in architectural order.
var fixedEvents = [NumFixed]isa.Event{
	isa.EvInstructions, // IA32_FIXED_CTR0: INST_RETIRED.ANY
	isa.EvCycles,       // IA32_FIXED_CTR1: CPU_CLK_UNHALTED.CORE
	isa.EvRefCycles,    // IA32_FIXED_CTR2: CPU_CLK_UNHALTED.REF
}

// PMU is one core's performance monitoring unit (plus its socket's IMC
// uncore block — the simulator models one core per socket, so the uncore
// counters live here too).
type PMU struct {
	table *EventTable

	evtsel [NumProgrammable]uint64
	pmc    [NumProgrammable]uint64

	fixed     [NumFixed]uint64
	fixedCtrl uint64

	globalCtrl   uint64
	globalStatus uint64

	uncSel        [NumUncore]uint64
	uncPmc        [NumUncore]uint64
	uncGlobalCtrl uint64

	// onPMI is invoked (if set) when an overflow occurs on a counter with
	// its PMI bit set. The kernel routes this to the local APIC handler.
	onPMI func(counter int, fixed bool)

	// onOverflow observes every 48-bit wrap, PMI-enabled or not. The kernel
	// routes this to the telemetry sink; keeping it a plain callback keeps
	// the pmu package free of higher-layer dependencies.
	onOverflow func(counter int, fixed bool)

	// activeProg/activeFixed cache, per privilege level, the bitmask of
	// counters that are globally enabled, locally enabled and (for
	// programmable counters) carry a table-resolved event; progEvent holds
	// that resolution. They are recomputed on writes to the control
	// registers, so AddCounts — the hottest call in the simulator, fed on
	// every work slice — touches only live counters instead of probing all
	// eight enable paths per call.
	activeProg  [2]uint8
	activeFixed [2]uint8
	progEvent   [NumProgrammable]isa.Event

	// activeUnc is the single (privilege-independent — uncore counts
	// regardless of CPL) active mask for the IMC counters.
	activeUnc uint8
	uncEvent  [NumUncore]isa.Event
}

// privIdx maps a privilege level onto the active-mask index.
func privIdx(priv isa.Priv) int {
	if priv == isa.User {
		return 0
	}
	return 1
}

// recomputeActive re-derives the active-counter masks from the register
// file. Called whenever an enable-affecting MSR is written.
func (p *PMU) recomputeActive() {
	p.activeProg = [2]uint8{}
	p.activeFixed = [2]uint8{}
	p.activeUnc = 0
	for i := 0; i < NumProgrammable; i++ {
		ev, ok := p.table.Lookup(p.evtsel[i])
		if !ok {
			continue
		}
		p.progEvent[i] = ev
		for pi, priv := range [2]isa.Priv{isa.User, isa.Kernel} {
			if p.progEnabled(i, priv) {
				p.activeProg[pi] |= 1 << uint(i)
			}
		}
	}
	for i := 0; i < NumFixed; i++ {
		for pi, priv := range [2]isa.Priv{isa.User, isa.Kernel} {
			if p.fixedEnabled(i, priv) {
				p.activeFixed[pi] |= 1 << uint(i)
			}
		}
	}
	for i := 0; i < NumUncore; i++ {
		if p.uncGlobalCtrl&(1<<uint(i)) == 0 || p.uncSel[i]&SelEn == 0 {
			continue
		}
		ev, ok := p.table.LookupUncore(p.uncSel[i])
		if !ok {
			continue
		}
		p.uncEvent[i] = ev
		p.activeUnc |= 1 << uint(i)
	}
}

// New creates a PMU resolving encodings through table (nil = empty table).
func New(table *EventTable) *PMU {
	return &PMU{
		table: table,
		// Power-on default: everything disabled, matching hardware.
	}
}

// SetPMIHandler installs the overflow interrupt callback.
func (p *PMU) SetPMIHandler(fn func(counter int, fixed bool)) { p.onPMI = fn }

// SetOverflowObserver installs a passive observer of counter wraps. Unlike
// the PMI handler it sees every overflow regardless of the PMI enable bits,
// and it must not perturb the register file.
func (p *PMU) SetOverflowObserver(fn func(counter int, fixed bool)) { p.onOverflow = fn }

// Table returns the PMU's event encoding table.
func (p *PMU) Table() *EventTable { return p.table }

// MSR access errors are predeclared so the WRMSR/RDMSR error paths — which
// run in (simulated) interrupt context — never allocate; fmt.Errorf with
// the offending address would heap-allocate on a path hotalloc proves clean.
var (
	errMSRReadOnly  = errors.New("pmu: IA32_PERF_GLOBAL_STATUS is read-only")
	errUnknownWRMSR = errors.New("pmu: WRMSR to unknown MSR")
	errUnknownRDMSR = errors.New("pmu: RDMSR from unknown MSR")
)

// WriteMSR implements WRMSR for the PMU register range.
func (p *PMU) WriteMSR(addr uint32, val uint64) error {
	switch {
	case addr >= MSRPmc0 && addr < MSRPmc0+NumProgrammable:
		p.pmc[addr-MSRPmc0] = val & counterMask
	case addr >= MSRPerfEvtSel0 && addr < MSRPerfEvtSel0+NumProgrammable:
		p.evtsel[addr-MSRPerfEvtSel0] = val
		p.recomputeActive()
	case addr >= MSRFixedCtr0 && addr < MSRFixedCtr0+NumFixed:
		p.fixed[addr-MSRFixedCtr0] = val & counterMask
	case addr == MSRFixedCtrCtrl:
		p.fixedCtrl = val
		p.recomputeActive()
	case addr == MSRGlobalCtrl:
		p.globalCtrl = val
		p.recomputeActive()
	case addr == MSRGlobalOvf:
		// Writing 1 bits clears the corresponding status bits.
		p.globalStatus &^= val
	case addr >= MSRUncPmc0 && addr < MSRUncPmc0+NumUncore:
		p.uncPmc[addr-MSRUncPmc0] = val & counterMask
	case addr >= MSRUncEvtSel0 && addr < MSRUncEvtSel0+NumUncore:
		p.uncSel[addr-MSRUncEvtSel0] = val
		p.recomputeActive()
	case addr == MSRUncGlobalCtrl:
		p.uncGlobalCtrl = val
		p.recomputeActive()
	case addr == MSRGlobalStatus:
		return errMSRReadOnly
	default:
		return errUnknownWRMSR
	}
	return nil
}

// ReadMSR implements RDMSR for the PMU register range.
func (p *PMU) ReadMSR(addr uint32) (uint64, error) {
	switch {
	case addr >= MSRPmc0 && addr < MSRPmc0+NumProgrammable:
		return p.pmc[addr-MSRPmc0], nil
	case addr >= MSRPerfEvtSel0 && addr < MSRPerfEvtSel0+NumProgrammable:
		return p.evtsel[addr-MSRPerfEvtSel0], nil
	case addr >= MSRFixedCtr0 && addr < MSRFixedCtr0+NumFixed:
		return p.fixed[addr-MSRFixedCtr0], nil
	case addr == MSRFixedCtrCtrl:
		return p.fixedCtrl, nil
	case addr == MSRGlobalCtrl:
		return p.globalCtrl, nil
	case addr == MSRGlobalStatus:
		return p.globalStatus, nil
	case addr >= MSRUncPmc0 && addr < MSRUncPmc0+NumUncore:
		return p.uncPmc[addr-MSRUncPmc0], nil
	case addr >= MSRUncEvtSel0 && addr < MSRUncEvtSel0+NumUncore:
		return p.uncSel[addr-MSRUncEvtSel0], nil
	case addr == MSRUncGlobalCtrl:
		return p.uncGlobalCtrl, nil
	default:
		return 0, errUnknownRDMSR
	}
}

// RDPMC implements the user-visible RDPMC instruction: counter indexes
// 0..NumProgrammable-1 read PMCs; indexes with bit 30 set read fixed
// counters (as on real hardware).
func (p *PMU) RDPMC(idx uint32) (uint64, error) {
	if idx&(1<<30) != 0 {
		i := idx &^ (1 << 30)
		if i >= NumFixed {
			return 0, fmt.Errorf("pmu: RDPMC fixed index %d out of range", i)
		}
		return p.fixed[i], nil
	}
	if idx >= NumProgrammable {
		return 0, fmt.Errorf("pmu: RDPMC index %d out of range", idx)
	}
	return p.pmc[idx], nil
}

// progEnabled reports whether programmable counter i counts at priv.
func (p *PMU) progEnabled(i int, priv isa.Priv) bool {
	if p.globalCtrl&(1<<uint(i)) == 0 {
		return false
	}
	sel := p.evtsel[i]
	if sel&SelEn == 0 {
		return false
	}
	if priv == isa.User {
		return sel&SelUsr != 0
	}
	return sel&SelOS != 0
}

// fixedEnabled reports whether fixed counter i counts at priv.
func (p *PMU) fixedEnabled(i int, priv isa.Priv) bool {
	if p.globalCtrl&(1<<uint(32+i)) == 0 {
		return false
	}
	nibble := (p.fixedCtrl >> uint(4*i)) & 0xF
	if priv == isa.User {
		return nibble&FixedUsr != 0
	}
	return nibble&FixedOS != 0
}

// AddCounts feeds a batch of ground-truth event counts, produced at the
// given privilege level, into every enabled counter. Overflows set global
// status bits and raise PMIs where requested. This is the single point
// through which all simulated "hardware" event activity flows, so it walks
// only the precomputed active-counter bitmasks: with nothing enabled (the
// common unmonitored stretch) it is two loads and two branches.
//
// c is passed by address so the per-slice feed copies nothing; AddCounts
// only reads it and does not keep it.
func (p *PMU) AddCounts(c *isa.Counts, priv isa.Priv) {
	pi := privIdx(priv)
	for m := p.activeProg[pi]; m != 0; m &= m - 1 {
		i := bits.TrailingZeros8(m)
		n := c[p.progEvent[i]]
		if n == 0 {
			continue
		}
		before := p.pmc[i]
		p.pmc[i] = (before + n) & counterMask
		if p.pmc[i] < before || before+n > counterMask {
			p.overflowProg(i)
		}
	}
	for m := p.activeFixed[pi]; m != 0; m &= m - 1 {
		i := bits.TrailingZeros8(m)
		n := c[fixedEvents[i]]
		if n == 0 {
			continue
		}
		before := p.fixed[i]
		p.fixed[i] = (before + n) & counterMask
		if p.fixed[i] < before || before+n > counterMask {
			p.overflowFixed(i)
		}
	}
	// Uncore counters observe all traffic regardless of privilege, wrap at
	// the same 48-bit width, and raise no PMI (the modeled IMC block has no
	// interrupt wiring — tools poll it).
	for m := p.activeUnc; m != 0; m &= m - 1 {
		i := bits.TrailingZeros8(m)
		n := c[p.uncEvent[i]]
		if n == 0 {
			continue
		}
		p.uncPmc[i] = (p.uncPmc[i] + n) & counterMask
	}
}

// Headroom reports how many copies of the per-block delta c can be added
// at privilege priv (capped at max) before any active programmable or
// fixed counter would cross its 48-bit wrap. The kernel's batch executor
// uses it so a batched AddCounts(c.Mul(n)) raises overflows and PMIs on
// exactly the same block as n individual AddCounts calls would — the batch
// stops one copy short of the first wrap, and the overflowing copy is
// applied alone. Always at least 1: the first copy has already executed
// and its overflow, if any, fires as in the unbatched path. Uncore
// counters are excluded — they wrap modularly with no PMI, and modular
// addition is associative, so batching cannot misplace an uncore wrap.
func (p *PMU) Headroom(c *isa.Counts, priv isa.Priv, max uint64) uint64 {
	pi := privIdx(priv)
	for m := p.activeProg[pi]; m != 0; m &= m - 1 {
		i := bits.TrailingZeros8(m)
		n := c[p.progEvent[i]]
		if n == 0 {
			continue
		}
		if room := (counterMask - p.pmc[i]) / n; room < max {
			max = room
		}
	}
	for m := p.activeFixed[pi]; m != 0; m &= m - 1 {
		i := bits.TrailingZeros8(m)
		n := c[fixedEvents[i]]
		if n == 0 {
			continue
		}
		if room := (counterMask - p.fixed[i]) / n; room < max {
			max = room
		}
	}
	if max < 1 {
		max = 1
	}
	return max
}

func (p *PMU) overflowProg(i int) {
	p.globalStatus |= 1 << uint(i)
	if p.onOverflow != nil {
		p.onOverflow(i, false)
	}
	if p.evtsel[i]&SelInt != 0 && p.onPMI != nil {
		p.onPMI(i, false)
	}
}

func (p *PMU) overflowFixed(i int) {
	p.globalStatus |= 1 << uint(32+i)
	if p.onOverflow != nil {
		p.onOverflow(i, true)
	}
	nibble := (p.fixedCtrl >> uint(4*i)) & 0xF
	if nibble&FixedPMI != 0 && p.onPMI != nil {
		p.onPMI(i, true)
	}
}

// OverflowInit returns the counter preset value that will overflow after
// period further events — the standard sampling idiom (write -period).
func OverflowInit(period uint64) uint64 {
	if period == 0 || period > counterMask {
		return 0
	}
	return (counterMask + 1 - period) & counterMask
}

// CounterMask exposes the 48-bit wrap mask for tools computing deltas.
func CounterMask() uint64 { return counterMask }

// DecodeSel renders an IA32_PERFEVTSEL value for humans, resolving the
// event through the table when possible — the debugging view of what a
// counter is programmed to do.
func (p *PMU) DecodeSel(sel uint64) string {
	name := "?"
	if ev, ok := p.table.Lookup(sel); ok {
		name = ev.String()
	}
	flags := ""
	if sel&SelUsr != 0 {
		flags += "usr,"
	}
	if sel&SelOS != 0 {
		flags += "os,"
	}
	if sel&SelInt != 0 {
		flags += "int,"
	}
	if sel&SelEn != 0 {
		flags += "en,"
	}
	if flags != "" {
		flags = flags[:len(flags)-1]
	}
	return fmt.Sprintf("%s (event=%#02x umask=%#02x flags=%s)",
		name, sel&0xFF, (sel>>8)&0xFF, flags)
}

// Snapshot renders the whole register file for debugging.
func (p *PMU) Snapshot() string {
	out := fmt.Sprintf("GLOBAL_CTRL=%#x GLOBAL_STATUS=%#x FIXED_CTRL=%#x\n",
		p.globalCtrl, p.globalStatus, p.fixedCtrl)
	for i := 0; i < NumProgrammable; i++ {
		out += fmt.Sprintf("PMC%d=%d SEL%d=%s\n", i, p.pmc[i], i, p.DecodeSel(p.evtsel[i]))
	}
	for i := 0; i < NumFixed; i++ {
		out += fmt.Sprintf("FIXED%d=%d (%s)\n", i, p.fixed[i], fixedEvents[i])
	}
	if p.uncGlobalCtrl != 0 {
		out += fmt.Sprintf("UNC_GLOBAL_CTRL=%#x\n", p.uncGlobalCtrl)
		for i := 0; i < NumUncore; i++ {
			out += fmt.Sprintf("UNC_PMC%d=%d SEL%d=%#x\n", i, p.uncPmc[i], i, p.uncSel[i])
		}
	}
	return out
}
