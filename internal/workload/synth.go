package workload

import (
	"kleb/internal/isa"
	"kleb/internal/kernel"
	"kleb/internal/ktime"
)

// Synthetic builds a single-phase uniform workload, useful for tests,
// examples and calibration sweeps.
type Synthetic struct {
	// Name labels the workload.
	Name string
	// TotalInstr is the instruction budget.
	TotalInstr uint64
	// BlockInstr is the emission granularity.
	BlockInstr uint64
	// LoadsPerK/StoresPerK set memory intensity.
	LoadsPerK, StoresPerK uint64
	// Footprint and RandomFrac set cache behaviour.
	Footprint  uint64
	RandomFrac float64
}

// Script materializes the synthetic workload.
func (s Synthetic) Script() Script {
	name := s.Name
	if name == "" {
		name = "synthetic"
	}
	loads := s.LoadsPerK
	if loads == 0 {
		loads = 250
	}
	stores := s.StoresPerK
	if stores == 0 {
		stores = 100
	}
	fp := s.Footprint
	if fp == 0 {
		fp = 1 << 20
	}
	bi := s.BlockInstr
	if bi == 0 {
		bi = 200_000
	}
	return Script{
		Name: name,
		Phases: []Phase{{
			Name:       "steady",
			TotalInstr: s.TotalInstr,
			BlockInstr: bi,
			LoadsPerK:  loads, StoresPerK: stores, BranchesPerK: 120,
			MispredictRate: 0.02,
			Mem: isa.MemPattern{
				Base: regionSynth, Footprint: fp, Stride: 8, RandomFrac: s.RandomFrac,
			},
			Priv: isa.User,
		}},
	}
}

// OSNoise returns a background daemon that wakes at pseudo-random moments
// and does a little work — scheduler noise for spread studies. Spawn it
// with Kernel.SpawnDaemon; it never exits.
func OSNoise(seed uint64) kernel.Program {
	rng := ktime.NewRand(seed)
	working := false
	return kernel.ProgramFunc(func(k *kernel.Kernel, p *kernel.Process) kernel.Op {
		if working {
			working = false
			return kernel.OpExec{Block: &isa.Block{
				Instr:    100_000 + rng.Uint64n(400_000),
				Loads:    60_000,
				Stores:   25_000,
				Branches: 12_000,
				Mem:      isa.MemPattern{Base: regionNoise, Footprint: 512 << 10, Stride: 8, RandomFrac: 0.05},
				Priv:     isa.User,
			}}
		}
		working = true
		return kernel.OpSleep{D: ktime.Duration(20+rng.Uint64n(60)) * ktime.Millisecond}
	})
}
