// Package workload provides the synthetic programs the experiments monitor:
// a phase-structured LINPACK model, triple-nested-loop and MKL-dgemm matrix
// multiplication, Docker container images with calibrated memory
// intensities, a Meltdown victim/attacker pair, and generic mix generators.
//
// Workloads are expressed as phase scripts: each phase emits instruction
// blocks with a fixed class mix and memory pattern until its instruction
// budget is exhausted. The paper's case studies only observe workloads
// through their hardware event signatures, so a synthetic program with the
// right signature exercises the identical monitoring code paths (DESIGN.md
// §1).
package workload

import (
	"kleb/internal/isa"
	"kleb/internal/kernel"
)

// Phase is one homogeneous stretch of a workload.
type Phase struct {
	// Name labels the phase for tracing.
	Name string
	// TotalInstr is the phase's instruction budget.
	TotalInstr uint64
	// BlockInstr is the emission granularity: how many instructions per
	// block. Smaller blocks let high-frequency sampling resolve the phase.
	BlockInstr uint64
	// Per-1000-instruction class mix.
	LoadsPerK, StoresPerK, BranchesPerK, MulsPerK, FPsPerK, FlushesPerK uint64
	// MispredictRate is the fraction of hard-to-predict branches.
	MispredictRate float64
	// Mem is the data access pattern.
	Mem isa.MemPattern
	// Priv is the privilege level (LINPACK's init runs in the kernel).
	Priv isa.Priv
}

// defaultBlockInstr is the emission granularity of a phase that declares
// none; blockAt and the stream compiler must agree on it.
const defaultBlockInstr = 100_000

// blockAt returns the phase's block for the given remaining budget.
func (ph Phase) blockAt(remaining uint64) isa.Block {
	n := ph.BlockInstr
	if n == 0 {
		n = defaultBlockInstr
	}
	if n > remaining {
		n = remaining
	}
	return isa.Block{
		Instr:                n,
		Loads:                n * ph.LoadsPerK / 1000,
		Stores:               n * ph.StoresPerK / 1000,
		Branches:             n * ph.BranchesPerK / 1000,
		MulOps:               n * ph.MulsPerK / 1000,
		FPOps:                n * ph.FPsPerK / 1000,
		Flushes:              n * ph.FlushesPerK / 1000,
		BranchMispredictRate: ph.MispredictRate,
		Mem:                  ph.Mem,
		Priv:                 ph.Priv,
	}
}

// Script is a complete workload: an ordered list of phases.
type Script struct {
	// Name identifies the workload.
	Name string
	// Phases run in order; the program exits after the last one.
	Phases []Phase
}

// TotalInstr sums the phases' instruction budgets.
func (s Script) TotalInstr() uint64 {
	var t uint64
	for _, ph := range s.Phases {
		t += ph.TotalInstr
	}
	return t
}

// TotalFPOps sums the floating point operations the script performs, for
// GFLOPS computations.
func (s Script) TotalFPOps() uint64 {
	var t uint64
	for _, ph := range s.Phases {
		t += ph.TotalInstr * ph.FPsPerK / 1000
	}
	return t
}

// Program returns a fresh kernel program executing the script once. The
// script is lowered to its compiled stream, which lets the kernel batch
// steady-phase blocks (it implements kernel.BlockStream).
func (s Script) Program() *ScriptProgram {
	sp := &ScriptProgram{script: s}
	sp.stream, sp.phaseOf = s.compile()
	return sp
}

// Compile lowers the script to its flat run-length block stream: per phase,
// one Run of identical full blocks plus one single-copy Run for the
// remainder.
func (s Script) Compile() isa.CompiledStream {
	cs, _ := s.compile()
	return cs
}

func (s Script) compile() (isa.CompiledStream, []int) {
	var runs []isa.Run
	var phaseOf []int
	for pi, ph := range s.Phases {
		if ph.TotalInstr == 0 {
			continue
		}
		n := ph.BlockInstr
		if n == 0 {
			n = defaultBlockInstr
		}
		if full := ph.TotalInstr / n; full > 0 {
			runs = append(runs, isa.Run{Block: ph.blockAt(ph.TotalInstr), Count: full})
			phaseOf = append(phaseOf, pi)
		}
		if rem := ph.TotalInstr % n; rem > 0 {
			runs = append(runs, isa.Run{Block: ph.blockAt(rem), Count: 1})
			phaseOf = append(phaseOf, pi)
		}
	}
	return isa.CompiledStream{Runs: runs}, phaseOf
}

// ScriptProgram drives a Script as a kernel process. It also implements the
// instrumentation seam PAPI/LiMiT need: an optional hook invoked every
// HookEvery retired instructions (a "strategic point" in the paper's
// terminology) may inject operations such as counter-read syscalls.
type ScriptProgram struct {
	script Script

	// The script lowered to a run-length block stream, with phaseOf mapping
	// each run back to its phase for tracing.
	stream  isa.CompiledStream
	phaseOf []int
	runIx   int
	runLeft uint64 // unemitted copies of the current run

	started bool

	// Prelude operations run once before the first phase — where
	// instrumenting tools put their library initialization (e.g.
	// PAPI_library_init).
	Prelude []kernel.Op
	// HookEvery inserts Hook's operations every so many instructions.
	HookEvery uint64
	// Hook returns the operations to run at a strategic point. It may
	// return nil.
	Hook func(k *kernel.Kernel, p *kernel.Process) []kernel.Op

	sinceHook uint64
	queue     []kernel.Op
	done      bool
}

var _ kernel.Program = (*ScriptProgram)(nil)
var _ kernel.BlockStream = (*ScriptProgram)(nil)

// Script returns the underlying script.
func (sp *ScriptProgram) Script() Script { return sp.script }

// PhaseName returns the name of the phase currently executing.
func (sp *ScriptProgram) PhaseName() string {
	if sp.runIx >= len(sp.phaseOf) {
		return ""
	}
	return sp.script.Phases[sp.phaseOf[sp.runIx]].Name
}

// Next implements kernel.Program.
func (sp *ScriptProgram) Next(k *kernel.Kernel, p *kernel.Process) kernel.Op {
	if len(sp.queue) > 0 {
		op := sp.queue[0]
		sp.queue = sp.queue[1:]
		return op
	}
	if sp.done {
		return kernel.OpExit{}
	}
	if !sp.started {
		sp.started = true
		if len(sp.stream.Runs) > 0 {
			sp.runLeft = sp.stream.Runs[0].Count
		}
		if len(sp.Prelude) > 0 {
			sp.queue = append(sp.queue, sp.Prelude...)
			return sp.nextQueued()
		}
	}
	// Positioned by (run, copies-left) so PeekRun can answer "how many
	// identical blocks follow?" in O(1). An empty stream finishes at once.
	for sp.runIx < len(sp.stream.Runs) && sp.runLeft == 0 {
		sp.runIx++
		if sp.runIx < len(sp.stream.Runs) {
			sp.runLeft = sp.stream.Runs[sp.runIx].Count
		}
	}
	if sp.runIx >= len(sp.stream.Runs) {
		return sp.finish(k, p)
	}
	sp.runLeft--
	return sp.emit(k, p, &sp.stream.Runs[sp.runIx].Block)
}

// emit accounts one block emission against the hook cadence and wraps it.
// blk points into the program's own compiled stream, which every Program
// call compiles afresh and nothing writes after compile, so the OpExec
// carries it without copying the block or allocating.
func (sp *ScriptProgram) emit(k *kernel.Kernel, p *kernel.Process, blk *isa.Block) kernel.Op {
	sp.sinceHook += blk.Instr
	if sp.HookEvery > 0 && sp.sinceHook >= sp.HookEvery {
		sp.sinceHook = 0
		if ops := sp.fireHook(k, p); len(ops) > 0 {
			sp.queue = append(sp.queue, ops...)
		}
	}
	return kernel.OpExec{Block: blk}
}

// finish marks the script drained and fires the final hook.
func (sp *ScriptProgram) finish(k *kernel.Kernel, p *kernel.Process) kernel.Op {
	sp.done = true
	if ops := sp.fireHook(k, p); len(ops) > 0 {
		sp.queue = append(sp.queue, ops...)
		return sp.nextQueued()
	}
	return kernel.OpExit{}
}

// PeekRun implements kernel.BlockStream: it reports the block the next Next
// call would emit and how many consecutive identical copies are available
// without a side effect — excluding queued hook/prelude ops, run (phase)
// boundaries, and the copy whose emission would trip the periodic hook,
// all of which must flow through a real Next call.
func (sp *ScriptProgram) PeekRun() (isa.Block, uint64) {
	if !sp.started || sp.done || len(sp.queue) > 0 ||
		sp.runIx >= len(sp.stream.Runs) || sp.runLeft == 0 {
		return isa.Block{}, 0
	}
	blk := sp.stream.Runs[sp.runIx].Block
	avail := sp.runLeft
	if sp.HookEvery > 0 {
		if sp.sinceHook >= sp.HookEvery {
			return blk, 0
		}
		// Copies emittable before one trips the hook: largest c with
		// sinceHook + c·Instr < HookEvery.
		if hookCap := (sp.HookEvery - sp.sinceHook - 1) / blk.Instr; hookCap < avail {
			avail = hookCap
		}
	}
	return blk, avail
}

// ConsumeRun implements kernel.BlockStream: it advances past n copies the
// caller batched, exactly as n Next calls would have (n must not exceed the
// last PeekRun's count, so no hook or boundary is skipped).
func (sp *ScriptProgram) ConsumeRun(n uint64) {
	if n == 0 {
		return
	}
	sp.runLeft -= n
	sp.sinceHook += n * sp.stream.Runs[sp.runIx].Block.Instr
}

func (sp *ScriptProgram) fireHook(k *kernel.Kernel, p *kernel.Process) []kernel.Op {
	if sp.Hook == nil {
		return nil
	}
	return sp.Hook(k, p)
}

func (sp *ScriptProgram) nextQueued() kernel.Op {
	op := sp.queue[0]
	sp.queue = sp.queue[1:]
	return op
}

// Instrumentable is the source-instrumentation seam: a program whose
// "source" can be modified to run setup code at the top of main and to
// insert operations at strategic points every so many retired instructions.
// PAPI- and LiMiT-style tools require it — they cannot observe a program
// they cannot recompile — and assert this interface rather than a concrete
// program type, so wrapper programs (the request-serving model) stay
// instrumentable by delegating to their inner script walk.
type Instrumentable interface {
	// Script returns the underlying phase script (for sizing the hook
	// cadence against the total instruction budget).
	Script() Script
	// Instrument installs the tool's prelude and strategic-point hook.
	Instrument(prelude []kernel.Op, every uint64, hook func(k *kernel.Kernel, p *kernel.Process) []kernel.Op)
}

// Instrument implements Instrumentable.
func (sp *ScriptProgram) Instrument(prelude []kernel.Op, every uint64, hook func(k *kernel.Kernel, p *kernel.Process) []kernel.Op) {
	sp.Prelude = prelude
	sp.HookEvery = every
	sp.Hook = hook
}

var _ Instrumentable = (*ScriptProgram)(nil)

// Region bases keep workloads' footprints disjoint in the shared hierarchy.
const (
	regionLinpack  uint64 = 0x1_0000_0000
	regionMatmul   uint64 = 0x2_0000_0000
	regionDocker   uint64 = 0x3_0000_0000
	regionMeltdown uint64 = 0x4_0000_0000
	regionSynth    uint64 = 0x5_0000_0000
	regionNoise    uint64 = 0x6_0000_0000
	regionTool     uint64 = 0x7_0000_0000
	regionServe    uint64 = 0x8_0000_0000
)

// ToolRegion is the memory region tool-side user work (log formatting)
// runs in, so tool activity pollutes the monitored process's cache the way
// a competing process would.
func ToolRegion() uint64 { return regionTool }
