package workload

import (
	"kleb/internal/isa"
	"kleb/internal/kernel"
)

// ContainerImage describes one of the Docker Hub images the paper profiles
// (Fig 5). The memory parameters are calibrated so the cache simulation
// classifies each image the way the paper's measurements do: interpreters
// land below 1 LLC MPKI, the mid tier below 10, and the web servers above
// 10 — on both machine profiles, since the web-server footprints exceed
// even Cascade Lake's LLC.
type ContainerImage struct {
	// Name is the Docker Hub image name.
	Name string
	// Class is the paper's classification for the image.
	Class WorkloadClass

	totalInstr uint64
	loadsPerK  uint64
	storesPerK uint64
	footprint  uint64
	randomFrac float64
	mulsPerK   uint64
}

// WorkloadClass is the memory/computation intensity classification of
// Muralidhara et al. that the paper applies: MPKI > 10 is memory-intensive.
type WorkloadClass string

// Classifications.
const (
	ComputeIntensive WorkloadClass = "computation-intensive"
	MemoryIntensive  WorkloadClass = "memory-intensive"
)

// ClassifyMPKI applies the MPKI-10 rule from the paper (§IV-B).
func ClassifyMPKI(mpki float64) WorkloadClass {
	if mpki > 10 {
		return MemoryIntensive
	}
	return ComputeIntensive
}

// Images returns the nine images of Fig 5 in the paper's presentation
// groups: interpreters, middleware, web servers.
func Images() []ContainerImage {
	return []ContainerImage{
		// Interpreter images: tight bytecode loops over small heaps.
		{Name: "ruby", Class: ComputeIntensive, totalInstr: 900_000_000,
			loadsPerK: 300, storesPerK: 110, footprint: 192 << 10, randomFrac: 0.02, mulsPerK: 30},
		{Name: "golang", Class: ComputeIntensive, totalInstr: 1_000_000_000,
			loadsPerK: 260, storesPerK: 90, footprint: 256 << 10, randomFrac: 0.015, mulsPerK: 45},
		{Name: "python", Class: ComputeIntensive, totalInstr: 850_000_000,
			loadsPerK: 320, storesPerK: 120, footprint: 224 << 10, randomFrac: 0.025, mulsPerK: 25},
		// Middleware: larger heaps with pointer chasing, still mostly
		// LLC-resident.
		{Name: "mysql", Class: ComputeIntensive, totalInstr: 800_000_000,
			loadsPerK: 330, storesPerK: 140, footprint: 5 << 20, randomFrac: 0.09, mulsPerK: 10},
		{Name: "traefik", Class: ComputeIntensive, totalInstr: 750_000_000,
			loadsPerK: 280, storesPerK: 100, footprint: 4 << 20, randomFrac: 0.06, mulsPerK: 12},
		{Name: "ghost", Class: ComputeIntensive, totalInstr: 700_000_000,
			loadsPerK: 310, storesPerK: 120, footprint: 6 << 20, randomFrac: 0.12, mulsPerK: 8},
		// Web servers: request/response buffers streaming through working
		// sets far larger than any LLC.
		{Name: "apache", Class: MemoryIntensive, totalInstr: 600_000_000,
			loadsPerK: 200, storesPerK: 90, footprint: 96 << 20, randomFrac: 0.10, mulsPerK: 4},
		{Name: "nginx", Class: MemoryIntensive, totalInstr: 650_000_000,
			loadsPerK: 180, storesPerK: 80, footprint: 64 << 20, randomFrac: 0.08, mulsPerK: 5},
		{Name: "tomcat", Class: MemoryIntensive, totalInstr: 550_000_000,
			loadsPerK: 230, storesPerK: 100, footprint: 128 << 20, randomFrac: 0.14, mulsPerK: 6},
	}
}

// ImageByName finds an image spec.
func ImageByName(name string) (ContainerImage, bool) {
	for _, img := range Images() {
		if img.Name == name {
			return img, true
		}
	}
	return ContainerImage{}, false
}

// Script builds the container workload's phase script: an image unpack /
// startup phase followed by steady-state service work.
func (c ContainerImage) Script() Script { return c.ScriptAt(0) }

// ScriptAt builds the script for the slot-th concurrent instance of the
// image: each instance gets a disjoint address region, as separate
// containers have separate memory (without this, two co-located copies of
// one image would constructively share cache lines).
func (c ContainerImage) ScriptAt(slot int) Script {
	region := regionDocker + uint64(fnv(c.Name))<<24 + uint64(slot)<<40
	return Script{
		Name: "docker-" + c.Name,
		Phases: []Phase{
			{
				Name:       "startup",
				TotalInstr: c.totalInstr / 20,
				BlockInstr: 300_000,
				LoadsPerK:  340, StoresPerK: 280, BranchesPerK: 70,
				MispredictRate: 0.02,
				Mem:            isa.MemPattern{Base: region, Footprint: c.footprint, Stride: 8},
				Priv:           isa.User,
			},
			{
				Name:       "service",
				TotalInstr: c.totalInstr,
				BlockInstr: 400_000,
				LoadsPerK:  c.loadsPerK, StoresPerK: c.storesPerK,
				BranchesPerK: 140, MulsPerK: c.mulsPerK,
				MispredictRate: 0.03,
				Mem: isa.MemPattern{
					Base:       region,
					Footprint:  c.footprint,
					Stride:     8,
					RandomFrac: c.randomFrac,
				},
				Priv: isa.User,
			},
		},
	}
}

// DockerRun returns the program of the Docker engine process launching the
// image: it forks a containerd-shim child that runs the container workload
// and waits for it. Monitoring the engine process therefore only observes
// the container's activity through process-lineage tracking — the paper's
// "profile Docker containers natively, given only a binary container".
func DockerRun(img ContainerImage) kernel.Program {
	var child kernel.PID
	stage := 0
	return kernel.ProgramFunc(func(k *kernel.Kernel, p *kernel.Process) kernel.Op {
		switch stage {
		case 0: // engine bookkeeping before the container starts
			stage = 1
			return kernel.OpExec{Block: &isa.Block{
				Instr: 4_000_000, Loads: 1_200_000, Stores: 500_000, Branches: 300_000,
				Mem:  isa.MemPattern{Base: regionDocker, Footprint: 1 << 20, Stride: 8},
				Priv: isa.User,
			}}
		case 1: // fork the containerd-shim / container process
			stage = 2
			return kernel.OpSpawn{Name: "containerd-shim-" + img.Name, Prog: img.Script().Program()}
		case 2: // block in waitpid until the container finishes
			if pid, ok := p.SyscallResult.(kernel.PID); ok {
				child = pid
			}
			stage = 3
			return kernel.OpWait{PID: child}
		}
		return kernel.OpExit{}
	})
}

// ClassSeed derives a stable per-image seed offset for experiments.
func ClassSeed(name string) uint64 { return uint64(fnv(name)) }

// fnv is a tiny string hash for region placement.
func fnv(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}
