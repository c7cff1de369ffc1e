// Package isa defines the instruction-level vocabulary shared by the CPU
// model, the PMU and the workloads: hardware event classes, privilege
// levels, and the instruction blocks in which workloads describe their work.
package isa

import (
	"fmt"
	"strings"
)

// Priv is the privilege level at which a stretch of work executes. The PMU
// filters event counting by privilege exactly as the USR/OS bits of
// IA32_PERFEVTSELx do on real hardware.
type Priv uint8

const (
	// User is ring-3 application code.
	User Priv = iota
	// Kernel is ring-0 code: syscall handlers, interrupt handlers, the
	// scheduler, and module code such as K-LEB itself.
	Kernel
)

func (p Priv) String() string {
	if p == Kernel {
		return "kernel"
	}
	return "user"
}

// Event identifies a hardware event class produced by the CPU model. These
// are the ground-truth event streams; the PMU maps architectural event
// encodings onto them per machine profile.
type Event uint8

const (
	// EvInstructions counts all retired instructions.
	EvInstructions Event = iota
	// EvCycles counts unhalted core clock cycles.
	EvCycles
	// EvRefCycles counts unhalted cycles at the reference (TSC) rate.
	EvRefCycles
	// EvLoads counts retired load instructions.
	EvLoads
	// EvStores counts retired store instructions.
	EvStores
	// EvBranches counts retired branch instructions.
	EvBranches
	// EvBranchMisses counts mispredicted retired branches.
	EvBranchMisses
	// EvLLCRefs counts last-level cache references (L2 misses reaching LLC).
	EvLLCRefs
	// EvLLCMisses counts last-level cache misses (references reaching DRAM).
	EvLLCMisses
	// EvL1DMisses counts L1 data cache misses.
	EvL1DMisses
	// EvL2Misses counts L2 cache misses.
	EvL2Misses
	// EvMulOps counts arithmetic multiply operations (ARITH.MUL on Nehalem).
	EvMulOps
	// EvFPOps counts floating-point operations executed.
	EvFPOps
	// EvCacheFlushes counts explicit cache line flushes (CLFLUSH).
	EvCacheFlushes
	// EvDTLBMisses counts data TLB misses (page walks).
	EvDTLBMisses
	// EvStallCycles counts cycles in which execution stalled (memory stalls,
	// mispredict recovery, flush latency) — the non-pipelined remainder of
	// EvCycles.
	EvStallCycles
	// EvCASReads counts DRAM CAS read commands at the integrated memory
	// controller — an uncore (IMC) event: it observes socket-wide memory
	// traffic and ignores the core's privilege filter.
	EvCASReads
	// EvCASWrites counts DRAM CAS write commands at the IMC (uncore).
	EvCASWrites
	// NumEvents is the number of event classes.
	NumEvents
)

var eventNames = [NumEvents]string{
	"INST_RETIRED",
	"CPU_CLK_UNHALTED.CORE",
	"CPU_CLK_UNHALTED.REF",
	"MEM_INST_RETIRED.LOADS",
	"MEM_INST_RETIRED.STORES",
	"BR_INST_RETIRED.ALL",
	"BR_MISP_RETIRED.ALL",
	"LLC_REFERENCES",
	"LLC_MISSES",
	"L1D.REPLACEMENT",
	"L2_RQSTS.MISS",
	"ARITH.MUL",
	"FP_COMP_OPS_EXE",
	"CLFLUSH.RETIRED",
	"DTLB_LOAD_MISSES.WALK_COMPLETED",
	"STALL_CYCLES",
	"UNC_M_CAS_COUNT.RD",
	"UNC_M_CAS_COUNT.WR",
}

// Uncore reports whether the event class counts in an uncore PMU block
// (the IMC) rather than the core PMU. Uncore events observe socket-wide
// traffic, ignore the core's privilege filter, and cannot be attributed to
// a single process.
func (e Event) Uncore() bool {
	return e == EvCASReads || e == EvCASWrites
}

// String returns the canonical mnemonic for the event.
func (e Event) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return fmt.Sprintf("Event(%d)", uint8(e))
}

// eventAliases maps common perf-style spellings onto the canonical
// mnemonics, so CLI flags like "llc_misses" or "instructions" resolve.
var eventAliases = map[string]Event{
	"INSTRUCTIONS":  EvInstructions,
	"INST":          EvInstructions,
	"CYCLES":        EvCycles,
	"CPU_CYCLES":    EvCycles,
	"REF_CYCLES":    EvRefCycles,
	"LOADS":         EvLoads,
	"MEM_LOADS":     EvLoads,
	"STORES":        EvStores,
	"MEM_STORES":    EvStores,
	"BRANCHES":      EvBranches,
	"BRANCH_MISSES": EvBranchMisses,
	"LLC_REFS":      EvLLCRefs,
	"CACHE_REFS":    EvLLCRefs,
	"CACHE_MISSES":  EvLLCMisses,
	"L1D_MISSES":    EvL1DMisses,
	"L2_MISSES":     EvL2Misses,
	"MULS":          EvMulOps,
	"FLOPS":         EvFPOps,
	"CACHE_FLUSHES": EvCacheFlushes,
	"CLFLUSH":       EvCacheFlushes,
	"DTLB_MISSES":   EvDTLBMisses,
	"STALLS":        EvStallCycles,
	"STALL":         EvStallCycles,
	"CAS_READS":     EvCASReads,
	"CAS_WRITES":    EvCASWrites,
	"MEM_READS":     EvCASReads,
	"MEM_WRITES":    EvCASWrites,
	"LLC_REFERENCE": EvLLCRefs, // common singular typos
	"LLC_MISS":      EvLLCMisses,
}

// EventByName resolves a mnemonic back to an event class. Matching is
// case-insensitive, ignores surrounding whitespace, and accepts the
// perf-style aliases above alongside the canonical names.
func EventByName(name string) (Event, bool) {
	name = strings.ToUpper(strings.TrimSpace(name))
	for i, n := range eventNames {
		if n == name {
			return Event(i), true
		}
	}
	if ev, ok := eventAliases[name]; ok {
		return ev, true
	}
	return 0, false
}

// Counts is a dense vector of per-event occurrence counts.
type Counts [NumEvents]uint64

// Add accumulates o into c.
func (c *Counts) Add(o Counts) {
	for i := range c {
		c[i] += o[i]
	}
}

// Mul returns c with every count multiplied by k, used when the kernel
// batches k identical replayed blocks into one priced unit.
func (c Counts) Mul(k uint64) Counts {
	var out Counts
	for i, v := range c {
		out[i] = v * k
	}
	return out
}
