// Event-table vocabulary: architectural event encodings, per-event counter
// constraints, and the per-microarchitecture tables that map encodings onto
// the simulator's ground-truth event classes.
//
// The shipped tables (events_gen.go) are *generated* from the checked-in
// spec events.spec — mirroring how likwid's perfmon_*_events.h headers and
// rust-perfcnt's IntelPerformanceCounterDescription tables are generated
// from Intel's event files rather than written by hand. Regenerate with
// `go generate ./internal/pmu`; scripts/lint.sh fails if the generated file
// drifts from the spec.
//
//go:generate go run ./gen -spec events.spec -out events_gen.go
package pmu

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"

	"kleb/internal/isa"
)

// Encoding is an architectural event encoding: the event-select and unit
// mask every event has, plus the counter-mask/flag qualifiers some
// encodings require (e.g. Nehalem's stall-cycle idiom cmask=1,inv).
type Encoding struct {
	EventSel uint8
	Umask    uint8
	// CMask is the counter-mask threshold (IA32_PERFEVTSEL bits 24-31);
	// zero for plain occurrence counting.
	CMask uint8
	// Flags holds the encoding-defining qualifier bits (EncEdge, EncAnyThr,
	// EncInv) — NOT the privilege/enable filter bits, which callers supply
	// per use via Sel.
	Flags uint8
}

// Encoding-defining qualifier flags (Encoding.Flags bits).
const (
	EncEdge   uint8 = 1 << 0 // edge detect (IA32_PERFEVTSEL bit 18)
	EncAnyThr uint8 = 1 << 1 // any-thread (bit 21)
	EncInv    uint8 = 1 << 2 // invert cmask comparison (bit 23)
)

// encodingMask covers exactly the IA32_PERFEVTSEL bits that identify an
// event: event select, umask, edge, any-thread, invert and cmask. The
// remaining bits (USR/OS/PC/INT/EN) are per-use filters and must never
// influence event resolution — Lookup strips them so that
// EncodingFor → Sel(anyFlags) → Lookup round-trips losslessly.
const encodingMask uint64 = 0xFF<<0 | 0xFF<<8 | 1<<18 | 1<<21 | 1<<23 | 0xFF<<24

// Bits returns the encoding-defining bits of the IA32_PERFEVTSEL value.
func (e Encoding) Bits() uint64 {
	v := uint64(e.EventSel) | uint64(e.Umask)<<8 | uint64(e.CMask)<<24
	if e.Flags&EncEdge != 0 {
		v |= 1 << 18
	}
	if e.Flags&EncAnyThr != 0 {
		v |= 1 << 21
	}
	if e.Flags&EncInv != 0 {
		v |= 1 << 23
	}
	return v
}

// Sel builds an IA32_PERFEVTSEL value from the encoding and filter flags.
func (e Encoding) Sel(flags uint64) uint64 { return e.Bits() | flags }

// decodeEncoding extracts the encoding-defining bits of a written
// IA32_PERFEVTSEL value back into an Encoding key.
func decodeEncoding(sel uint64) Encoding {
	var flags uint8
	if sel&(1<<18) != 0 {
		flags |= EncEdge
	}
	if sel&(1<<21) != 0 {
		flags |= EncAnyThr
	}
	if sel&(1<<23) != 0 {
		flags |= EncInv
	}
	return Encoding{
		EventSel: uint8(sel),
		Umask:    uint8(sel >> 8),
		CMask:    uint8(sel >> 24),
		Flags:    flags,
	}
}

// String renders the encoding in perf's rUUEE style, with qualifiers.
func (e Encoding) String() string {
	s := fmt.Sprintf("r%02X%02X", e.Umask, e.EventSel)
	if e.CMask != 0 {
		s += fmt.Sprintf(",cmask=%d", e.CMask)
	}
	if e.Flags&EncEdge != 0 {
		s += ",edge"
	}
	if e.Flags&EncAnyThr != 0 {
		s += ",any"
	}
	if e.Flags&EncInv != 0 {
		s += ",inv"
	}
	return s
}

// ParseRawEncoding parses perf's raw event syntax "rUUEE" (hex umask byte
// then hex event-select byte, e.g. r0304 = umask 0x03, event 0x04).
func ParseRawEncoding(s string) (Encoding, bool) {
	s = strings.TrimSpace(s)
	if len(s) != 5 || (s[0] != 'r' && s[0] != 'R') {
		return Encoding{}, false
	}
	var umask, sel uint8
	if _, err := fmt.Sscanf(s[1:], "%02x%02x", &umask, &sel); err != nil {
		return Encoding{}, false
	}
	return Encoding{EventSel: sel, Umask: umask}, true
}

// Unit is the PMU block an event counts in.
type Unit uint8

const (
	// UnitCore is the per-core PMU (fixed + programmable counters).
	UnitCore Unit = iota
	// UnitIMC is the integrated-memory-controller uncore PMU. Uncore
	// counters observe socket-wide traffic and ignore privilege filters.
	UnitIMC
)

func (u Unit) String() string {
	if u == UnitIMC {
		return "imc"
	}
	return "core"
}

// EventDesc is one generated event-table entry: the architectural encoding
// of an event class on a microarchitecture plus its counter constraints.
type EventDesc struct {
	// Name is the architectural mnemonic ("ARITH.MUL").
	Name string
	// Brief is the one-line SDM-style description.
	Brief string
	// Event is the simulator ground-truth class the encoding counts.
	Event isa.Event
	// Enc is the architectural encoding.
	Enc Encoding
	// Unit selects the PMU block (core / IMC uncore).
	Unit Unit
	// FixedMask is the bitmask of fixed-function counters that count this
	// event (zero for events with no fixed counter).
	FixedMask uint8
	// CtrMask is the bitmask of programmable counters (core PMCs for
	// UnitCore, uncore PMCs for UnitIMC) able to count this event. Zero
	// means fixed-only.
	CtrMask uint8
}

// FixedOnly reports whether the event can only live on a fixed counter.
func (d EventDesc) FixedOnly() bool { return d.FixedMask != 0 && d.CtrMask == 0 }

// EventTable is one microarchitecture's event vocabulary: the generated
// descriptor list plus the lookup indexes the hot paths use.
type EventTable struct {
	arch  string
	descs []EventDesc

	byCore  map[Encoding]int
	byUnc   map[Encoding]int
	byEvent map[isa.Event]int
}

// NewTable builds a table from descriptors, validating that encodings and
// event classes are unique per unit and counter masks are in range.
func NewTable(arch string, descs []EventDesc) (*EventTable, error) {
	t := &EventTable{
		arch:    arch,
		descs:   append([]EventDesc(nil), descs...),
		byCore:  make(map[Encoding]int, len(descs)),
		byUnc:   make(map[Encoding]int),
		byEvent: make(map[isa.Event]int, len(descs)),
	}
	for i, d := range t.descs {
		switch d.Unit {
		case UnitCore:
			if prev, dup := t.byCore[d.Enc]; dup {
				return nil, fmt.Errorf("pmu: table %s: encoding %v maps to both %v and %v",
					arch, d.Enc, t.descs[prev].Event, d.Event)
			}
			t.byCore[d.Enc] = i
			t.descs[i].CtrMask &= (1 << NumProgrammable) - 1
			t.descs[i].FixedMask &= (1 << NumFixed) - 1
		case UnitIMC:
			if prev, dup := t.byUnc[d.Enc]; dup {
				return nil, fmt.Errorf("pmu: table %s: uncore encoding %v maps to both %v and %v",
					arch, d.Enc, t.descs[prev].Event, d.Event)
			}
			t.byUnc[d.Enc] = i
			t.descs[i].CtrMask &= (1 << NumUncore) - 1
			if d.FixedMask != 0 {
				return nil, fmt.Errorf("pmu: table %s: uncore event %s cannot be fixed-capable", arch, d.Name)
			}
		default:
			return nil, fmt.Errorf("pmu: table %s: event %s has unknown unit %d", arch, d.Name, d.Unit)
		}
		if _, dup := t.byEvent[d.Event]; dup {
			return nil, fmt.Errorf("pmu: table %s: event class %v has two encodings", arch, d.Event)
		}
		t.byEvent[d.Event] = i
	}
	return t, nil
}

// TableFromClasses builds a table from a plain encoding→class map with
// default constraints (any programmable counter, plus the architectural
// fixed counter for the three fixed event classes). Tests and benchmarks
// use it where the full generated vocabulary is overkill.
func TableFromClasses(arch string, classes map[Encoding]isa.Event) *EventTable {
	encs := make([]Encoding, 0, len(classes))
	for enc := range classes {
		encs = append(encs, enc)
	}
	// The map has no deterministic order; index order is part of the
	// table's identity, so sort by encoding bits.
	sort.Slice(encs, func(i, j int) bool { return encs[i].Bits() < encs[j].Bits() })
	descs := make([]EventDesc, 0, len(encs))
	for _, enc := range encs {
		ev := classes[enc]
		d := EventDesc{
			Name:    ev.String(),
			Event:   ev,
			Enc:     enc,
			Unit:    UnitCore,
			CtrMask: (1 << NumProgrammable) - 1,
		}
		if idx := FixedIndexFor(ev); idx >= 0 {
			d.FixedMask = 1 << uint(idx)
		}
		descs = append(descs, d)
	}
	t, err := NewTable(arch, descs)
	if err != nil {
		panic(err) // duplicate entries in a literal map are a programming error
	}
	return t
}

// archRegistry holds the generated per-microarchitecture descriptor lists;
// events_gen.go populates it from init.
var archRegistry = map[string][]EventDesc{}

// registerArch is called by the generated code.
func registerArch(arch string, descs []EventDesc) { archRegistry[arch] = descs }

// builtTables caches constructed tables; machines boot thousands of times
// per experiment, from parallel workers, and the tables are immutable.
var (
	builtMu     sync.Mutex
	builtTables = map[string]*EventTable{} // guarded by builtMu
)

// MustTable returns the generated table for a microarchitecture ("nehalem",
// "cascadelake"), panicking on unknown names — profiles are static. It is
// safe for concurrent use.
func MustTable(arch string) *EventTable {
	builtMu.Lock()
	defer builtMu.Unlock()
	if t, ok := builtTables[arch]; ok {
		return t
	}
	descs, ok := archRegistry[arch]
	if !ok {
		panic(fmt.Sprintf("pmu: no generated event table for %q", arch))
	}
	t, err := NewTable(arch, descs)
	if err != nil {
		panic(err)
	}
	builtTables[arch] = t
	return t
}

// Arches lists the generated microarchitectures, sorted.
func Arches() []string {
	out := make([]string, 0, len(archRegistry))
	for arch := range archRegistry {
		out = append(out, arch)
	}
	sort.Strings(out)
	return out
}

// Arch returns the table's microarchitecture name.
func (t *EventTable) Arch() string {
	if t == nil {
		return ""
	}
	return t.arch
}

// Descs returns the descriptor list in table order. Callers must not
// mutate it.
func (t *EventTable) Descs() []EventDesc {
	if t == nil {
		return nil
	}
	return t.descs
}

// Lookup resolves a written IA32_PERFEVTSEL value to a core event class,
// considering only the encoding-defining bits (filter/enable bits are
// per-use and ignored).
func (t *EventTable) Lookup(sel uint64) (isa.Event, bool) {
	d, ok := t.LookupDesc(sel)
	return d.Event, ok
}

// LookupDesc is Lookup returning the full descriptor.
func (t *EventTable) LookupDesc(sel uint64) (EventDesc, bool) {
	if t == nil {
		return EventDesc{}, false
	}
	i, ok := t.byCore[decodeEncoding(sel)]
	if !ok {
		return EventDesc{}, false
	}
	return t.descs[i], true
}

// LookupUncore resolves an uncore PERFEVTSEL value to its event class.
func (t *EventTable) LookupUncore(sel uint64) (isa.Event, bool) {
	if t == nil {
		return 0, false
	}
	i, ok := t.byUnc[decodeEncoding(sel)]
	if !ok {
		return 0, false
	}
	return t.descs[i].Event, true
}

// EncodingFor returns the architectural encoding that counts ev on a
// *programmable* counter of this machine, if the microarchitecture exposes
// one (fixed-only events have no programmable encoding).
func (t *EventTable) EncodingFor(ev isa.Event) (Encoding, bool) {
	d, ok := t.DescFor(ev)
	if !ok || d.FixedOnly() {
		return Encoding{}, false
	}
	return d.Enc, true
}

// DescFor returns the full descriptor for an event class.
func (t *EventTable) DescFor(ev isa.Event) (EventDesc, bool) {
	if t == nil {
		return EventDesc{}, false
	}
	i, ok := t.byEvent[ev]
	if !ok {
		return EventDesc{}, false
	}
	return t.descs[i], true
}

// FixedIndexFor maps the three architecturally fixed event classes to their
// fixed-counter indexes (-1 for all others). The mapping is architectural —
// identical on every Intel machine the paper touches — so it does not vary
// by table.
func FixedIndexFor(ev isa.Event) int {
	switch ev {
	case isa.EvInstructions:
		return 0
	case isa.EvCycles:
		return 1
	case isa.EvRefCycles:
		return 2
	}
	return -1
}

// Render writes the table as an aligned listing (the `events` subcommand).
func (t *EventTable) Render(w io.Writer) {
	if t == nil {
		return
	}
	fmt.Fprintf(w, "event table: %s (%d events)\n", t.arch, len(t.descs))
	fmt.Fprintf(w, "%-32s %-14s %-5s %-10s %s\n", "NAME", "ENCODING", "UNIT", "COUNTERS", "DESCRIPTION")
	for _, d := range t.descs {
		fmt.Fprintf(w, "%-32s %-14s %-5s %-10s %s\n",
			d.Name, d.Enc, d.Unit, counterSpec(d), d.Brief)
	}
}

// counterSpec renders an event's counter constraints compactly.
func counterSpec(d EventDesc) string {
	var parts []string
	if d.FixedMask != 0 {
		parts = append(parts, "fixed"+maskList(d.FixedMask))
	}
	if d.CtrMask != 0 {
		prefix := "pmc"
		if d.Unit == UnitIMC {
			prefix = "unc"
		}
		full := uint8(1<<NumProgrammable - 1)
		if d.Unit == UnitIMC {
			full = 1<<NumUncore - 1
		}
		if d.CtrMask == full {
			parts = append(parts, prefix+"*")
		} else {
			parts = append(parts, prefix+maskList(d.CtrMask))
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, ",")
}

// maskList renders a counter bitmask as "0-1" style index ranges.
func maskList(mask uint8) string {
	var idx []string
	for m := mask; m != 0; m &= m - 1 {
		idx = append(idx, fmt.Sprint(bits.TrailingZeros8(m)))
	}
	return strings.Join(idx, "+")
}
