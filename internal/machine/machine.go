// Package machine assembles a complete simulated system — CPU core, PMU,
// caches, kernel — from a hardware profile. Two profiles mirror the paper's
// testbeds: the local Intel Core i7-920 ("Nehalem") and the AWS Xeon
// Platinum 8259CL ("Cascade Lake"), plus a LiMiT-patched legacy kernel
// matching the paper's Ubuntu 12.04 / 2.6.32 setup.
package machine

import (
	"kleb/internal/cache"
	"kleb/internal/cpu"
	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/pmu"
)

// Profile is a full hardware + kernel configuration.
type Profile struct {
	// Name is a short identifier ("nehalem-i7-920").
	Name string
	// CPUModel is the marketing name used in reports.
	CPUModel string
	// CPU parameterizes the core model (frequency, CPI, caches...).
	CPU cpu.Config
	// Events is this microarchitecture's generated event table: encodings,
	// counter constraints and uncore units. Events missing here cannot be
	// counted on it.
	Events *pmu.EventTable
	// Costs is the kernel cost model.
	Costs kernel.CostModel
	// Kernel selects kernel features (e.g. the LiMiT patch).
	Kernel kernel.Options
}

// Nehalem returns the paper's local testbed: Intel Core i7-920 @ 2.67 GHz,
// Ubuntu 16.04-era stock kernel.
func Nehalem() Profile {
	return Profile{
		Name:     "nehalem-i7-920",
		CPUModel: "Intel Core i7-920 @ 2.67GHz",
		CPU: cpu.Config{
			Freq:              ktime.MHz(2670),
			BaseCPI:           0.45,
			BranchMissPenalty: 17,
			FlushCycles:       60,
			PrefetchMemCycles: 28,
			Hierarchy: cache.HierarchyConfig{
				L1D:              cache.Config{Name: "L1D", Size: 32 << 10, LineSize: 64, Ways: 8, LatencyCycles: 4},
				L2:               cache.Config{Name: "L2", Size: 256 << 10, LineSize: 64, Ways: 8, LatencyCycles: 10},
				LLC:              cache.Config{Name: "LLC", Size: 8 << 20, LineSize: 64, Ways: 16, LatencyCycles: 38},
				MemLatencyCycles: 190,
			},
			PredictorBits:  12,
			MaxSimAccesses: 768,
		},
		Events: pmu.MustTable("nehalem"),
		Costs:  kernel.DefaultCosts(),
	}
}

// CascadeLake returns the paper's AWS validation machine: Xeon Platinum
// 8259CL @ 2.50 GHz. The LLC here stands in for one socket's share; its
// size is rounded to the nearest power-of-two set count the simulator
// supports (the paper only relies on it being much larger than Nehalem's).
func CascadeLake() Profile {
	p := Profile{
		Name:     "cascadelake-8259cl",
		CPUModel: "Intel Xeon Platinum 8259CL @ 2.50GHz",
		CPU: cpu.Config{
			Freq:              ktime.MHz(2500),
			BaseCPI:           0.38,
			BranchMissPenalty: 16,
			FlushCycles:       55,
			PrefetchMemCycles: 22,
			Hierarchy: cache.HierarchyConfig{
				L1D:              cache.Config{Name: "L1D", Size: 32 << 10, LineSize: 64, Ways: 8, LatencyCycles: 4},
				L2:               cache.Config{Name: "L2", Size: 1 << 20, LineSize: 64, Ways: 16, LatencyCycles: 14},
				LLC:              cache.Config{Name: "LLC", Size: 32 << 20, LineSize: 64, Ways: 16, LatencyCycles: 44},
				MemLatencyCycles: 220,
			},
			PredictorBits:  14,
			MaxSimAccesses: 768,
		},
		Events: pmu.MustTable("cascadelake"),
		Costs:  kernel.DefaultCosts(),
	}
	return p
}

// LiMiTKernel returns the Nehalem machine running the patched legacy
// kernel (Ubuntu 12.04, 2.6.32 + LiMiT) the paper used for its LiMiT rows.
func LiMiTKernel() Profile {
	p := Nehalem()
	p.Name = "nehalem-i7-920-limit"
	p.Kernel.LiMiTPatch = true
	return p
}

// Machine is a booted simulated system.
type Machine struct {
	prof Profile
	core *cpu.Core
	kern *kernel.Kernel
}

// Boot builds the core, PMU and kernel for prof. seed drives every noise
// source in this machine; equal seeds give bit-identical runs.
func Boot(prof Profile, seed uint64) *Machine {
	root := ktime.NewRand(seed)
	p := pmu.New(prof.Events)
	core := cpu.New(prof.CPU, p, root.Split())
	kern := kernel.New(core, prof.Costs, root.Split(), prof.Kernel)
	return &Machine{prof: prof, core: core, kern: kern}
}

// Profile returns the machine's hardware profile.
func (m *Machine) Profile() Profile { return m.prof }

// Core returns the CPU core.
func (m *Machine) Core() *cpu.Core { return m.core }

// Kernel returns the operating system kernel.
func (m *Machine) Kernel() *kernel.Kernel { return m.kern }

// Release ends the machine's storage with its run: it hands the cache
// arrays back for reuse by later boots of the same geometry (see
// cache.Cache.Release), then drops the simulated filesystem's files (see
// kernel.FS.Release). Call it once nothing will run on the machine or
// read its caches or files again. A cluster core's Release leaves the
// shared LLC alone; Cluster.Release releases that.
func (m *Machine) Release() {
	m.core.Caches().Release()
	m.kern.FS().Release()
}
