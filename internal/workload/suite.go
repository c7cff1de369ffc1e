package workload

import "kleb/internal/isa"

// Benchmark is one member of the characterization suite: a synthetic
// program whose instruction mix and memory behaviour are shaped after a
// familiar workload family. The suite exists for workload characterization
// (this is an IISWC paper, after all): run each member under K-LEB and
// derive its IPC / MPKI / branch-behaviour fingerprint.
type Benchmark struct {
	// Name identifies the benchmark; Family is the behaviour it is shaped
	// after.
	Name, Family string

	totalInstr   uint64
	loadsPerK    uint64
	storesPerK   uint64
	branchesPerK uint64
	mulsPerK     uint64
	fpsPerK      uint64
	mispredict   float64
	footprint    uint64
	randomFrac   float64
}

// Suite returns the characterization suite, one member per behaviour
// archetype.
func Suite() []Benchmark {
	return []Benchmark{
		{
			Name: "compressor", Family: "bzip2-like (integer, branchy, L2-resident)",
			totalInstr: 400_000_000,
			loadsPerK:  280, storesPerK: 140, branchesPerK: 190, mulsPerK: 8,
			mispredict: 0.08, footprint: 192 << 10, randomFrac: 0.04,
		},
		{
			Name: "pointer-chaser", Family: "mcf-like (sparse graph, DRAM-bound)",
			totalInstr: 150_000_000,
			loadsPerK:  280, storesPerK: 60, branchesPerK: 160, mulsPerK: 2,
			mispredict: 0.06, footprint: 96 << 20, randomFrac: 0.22,
		},
		{
			Name: "compiler", Family: "gcc-like (mixed, mid-size working set)",
			totalInstr: 350_000_000,
			loadsPerK:  300, storesPerK: 130, branchesPerK: 210, mulsPerK: 10,
			mispredict: 0.05, footprint: 1536 << 10, randomFrac: 0.06,
		},
		{
			Name: "stencil", Family: "hpc-stream-like (FP, streaming, prefetch-friendly)",
			totalInstr: 300_000_000,
			loadsPerK:  340, storesPerK: 170, branchesPerK: 40,
			mulsPerK: 120, fpsPerK: 380,
			mispredict: 0.004, footprint: 128 << 20, randomFrac: 0,
		},
		{
			Name: "crypto", Family: "aes-like (compute, tiny tables, no misses)",
			totalInstr: 450_000_000,
			loadsPerK:  220, storesPerK: 60, branchesPerK: 50, mulsPerK: 160,
			mispredict: 0.002, footprint: 16 << 10, randomFrac: 0.02,
		},
		{
			Name: "interpreter", Family: "python-like (dispatch loop, unpredictable branches)",
			totalInstr: 380_000_000,
			loadsPerK:  330, storesPerK: 120, branchesPerK: 230, mulsPerK: 15,
			mispredict: 0.12, footprint: 224 << 10, randomFrac: 0.08,
		},
	}
}

// Script materializes the benchmark.
func (b Benchmark) Script() Script {
	return Script{
		Name: b.Name,
		Phases: []Phase{{
			Name:       "main",
			TotalInstr: b.totalInstr,
			BlockInstr: 400_000,
			LoadsPerK:  b.loadsPerK, StoresPerK: b.storesPerK,
			BranchesPerK: b.branchesPerK, MulsPerK: b.mulsPerK, FPsPerK: b.fpsPerK,
			MispredictRate: b.mispredict,
			Mem: isa.MemPattern{
				Base:       regionSynth + 8<<32 + uint64(fnv(b.Name))<<20,
				Footprint:  b.footprint,
				Stride:     8,
				RandomFrac: b.randomFrac,
			},
			Priv: isa.User,
		}},
	}
}
