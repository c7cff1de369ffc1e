package kernel

import (
	"kleb/internal/cpu"
	"kleb/internal/isa"
	"kleb/internal/ktime"
)

// BlockStream is the optional fast-path interface a Program implements when
// it can describe its upcoming ops in run-length form (a compiled workload
// stream, DESIGN.md §13). After Next has returned an OpExec, PeekRun
// reports the block the program would emit next and how many consecutive
// identical copies of it are available — already excluding anything that
// must go through a real Next call (prelude/hook ops, a phase boundary, the
// copy that trips a periodic hook). ConsumeRun(n) then consumes n of those
// copies exactly as n Next calls would, minus the per-call overhead; the
// program must guarantee those calls would have had no side effects beyond
// advancing its position.
type BlockStream interface {
	PeekRun() (isa.Block, uint64)
	ConsumeRun(n uint64)
}

// executeRun prices the OpExec block the current process just emitted,
// batching consecutive identical copies into one priced unit when this is
// provably equivalent to stepping them one by one:
//
//   - the program is a BlockStream and its next avail emissions are the
//     same block (so Next would have returned them anyway);
//   - the copy just executed was a *stable* memo replay
//     (cpu.Core.ExecuteRun), so every batched copy is priced identically
//     and mutates no core state;
//   - the whole batch fits the caller's budget, which already ends at the
//     earliest pending event — no timer, wakeup or slice boundary can land
//     inside the batch (only whole blocks are batched; a block that
//     straddles the horizon is split downstream exactly as before);
//   - the PMU has headroom for the whole batch (pmu.Headroom), so counter
//     overflows and PMIs land on the same block as in the unbatched path.
//
// Under those conditions applyWork(sum) equals n× applyWork(block): the
// clock, user time and (by associativity of modular counter addition) every
// PMU counter see identical values, byte for byte.
//
//klebvet:hotpath
func (k *Kernel) executeRun(p *Process, b isa.Block, budget ktime.Duration) cpu.Costed {
	max := uint64(1)
	bs, streaming := p.prog.(BlockStream)
	if streaming {
		if nb, avail := bs.PeekRun(); avail > 0 && nb == b {
			max += avail
		}
	}
	first, n := k.core.ExecuteRun(b, max)
	if n > 1 && first.Time > 0 {
		if byTime := uint64(budget) / uint64(first.Time); byTime < n {
			n = byTime
		}
	}
	if n > 1 {
		n = k.core.PMU().Headroom(&first.Counts, first.Priv, n)
	}
	if n <= 1 {
		return first
	}
	k.core.AdvanceReplays(b, n-1)
	bs.ConsumeRun(n - 1)
	return cpu.Costed{
		Counts: first.Counts.Mul(n),
		Time:   first.Time * ktime.Duration(n),
		Priv:   first.Priv,
	}
}

// NextEventAt returns the earliest pending event (timer expiry or sleeper
// wakeup), if any. It reads the cached heap top, so co-simulation drivers
// can poll it per window for free.
func (k *Kernel) NextEventAt() (ktime.Time, bool) { return k.nextAt, k.nextOk }

// Runnable reports whether any process could execute right now. A kernel
// that is not runnable can only be woken by a pending event, so a driver
// may fast-forward it to NextEventAt in one jump (idle time accumulates
// identically either way).
func (k *Kernel) Runnable() bool { return k.current != nil || k.runq.Len() > 0 }
