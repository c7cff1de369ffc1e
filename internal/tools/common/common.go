// Package common holds the small pieces the baseline tools share: log
// formatting/writing cost ops and sample bookkeeping.
package common

import (
	"kleb/internal/isa"
	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/monitor"
	"kleb/internal/workload"
)

// FormatOp models user-space formatting of n event values into a text log
// line (what perf stat's interval printing and PAPI/LiMiT harness logging
// spend their time on).
func FormatOp(instr uint64) kernel.Op {
	return kernel.OpExec{Block: &isa.Block{
		Instr:    instr,
		Loads:    instr / 3,
		Stores:   instr / 8,
		Branches: instr / 9,
		Mem: isa.MemPattern{
			Base:      workload.ToolRegion(),
			Footprint: 384 << 10,
			Stride:    8,
		},
		Priv: isa.User,
	}}
}

// LogPointOp models the user-side work of one instrumented log point: a
// snprintf of a handful of counter values. It is deliberately tiny in
// *instructions* — the point's cost lives in the kernel side of the write
// (WriteOp) — so the instrumentation's own counted footprint stays in the
// sub-0.3% band the paper reports for cross-tool count agreement.
func LogPointOp(extraInstr uint64) kernel.Op {
	instr := 2_000 + extraInstr
	return kernel.OpExec{Block: &isa.Block{
		Instr:    instr,
		Loads:    instr / 4,
		Stores:   instr / 10,
		Branches: instr / 10,
		Mem: isa.MemPattern{
			Base:      workload.ToolRegion(),
			Footprint: 64 << 10,
			Stride:    8,
		},
		Priv: isa.User,
	}}
}

// WriteOp models the write(2) flushing a log buffer: the kernel-side cost
// dominates (VFS, page cache copy).
func WriteOp(kernelCost ktime.Duration) kernel.Op {
	return kernel.OpSyscall{Name: "write", Fn: func(k *kernel.Kernel, p *kernel.Process) any {
		k.ChargeKernel(kernelCost)
		return nil
	}}
}

// DeltaTracker turns successive absolute counter readings into per-sample
// deltas for the monitor.Sample series.
type DeltaTracker struct {
	last []uint64
	init bool
}

// Sample converts absolute values into a delta sample at time t.
func (d *DeltaTracker) Sample(t ktime.Time, values []uint64) monitor.Sample {
	deltas := make([]uint64, len(values))
	if d.init {
		for i, v := range values {
			if i < len(d.last) && v >= d.last[i] {
				deltas[i] = v - d.last[i]
			}
		}
	} else {
		copy(deltas, values)
	}
	d.last = append(d.last[:0], values...)
	d.init = true
	return monitor.Sample{Time: t, Deltas: deltas}
}

// Last returns the most recent absolute values seen.
func (d *DeltaTracker) Last() []uint64 { return d.last }
