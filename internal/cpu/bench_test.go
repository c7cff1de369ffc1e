package cpu_test

import (
	"testing"

	"kleb/internal/cpu"
	"kleb/internal/isa"
	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/pmu"
)

// BenchmarkMemoMeasure prices the memo's bracketed measure path on Nehalem
// geometry: the cache Save/Restore bracket, the lazy footprint pre-warm and
// the probe itself. Op i executes a block with a distinct instruction
// count, so every op is a memo miss, over a 4 MB footprint the 8 MB LLC
// pre-warms. One warm-up block sweeps the region twice first, which puts
// every later block in the steady warmth class where the memo measures
// canonically.
func BenchmarkMemoMeasure(b *testing.B) {
	core := cpu.New(machine.Nehalem().CPU, pmu.New(nil), ktime.NewRand(8))
	mem := isa.MemPattern{Base: 0xC000_0000, Footprint: 4 << 20, Stride: 64}
	core.Execute(isa.Block{Instr: 1 << 20, Loads: 2 * mem.Footprint / mem.Stride, Mem: mem, Priv: isa.User})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Execute(isa.Block{Instr: 10_000 + uint64(i), Loads: 2_500, Mem: mem, Priv: isa.User})
	}
}
