package experiments

import (
	"fmt"
	"io"

	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/session"
	"kleb/internal/workload"
)

// The placement study extends the pairwise matrix to the scheduler's actual
// decision: four containers, two cores, two ways to split them. It
// validates the paper's §IV-B placement rule — "the scheduler can colocate
// computation-intensive programs or containers with the memory-intensive
// ones on the same core, while scheduling the programs that require the
// same type of resources on different cores" — with measured makespans:
// stacking both LLC-resident containers on one core serializes them AND
// still thrashes the socket's shared LLC (two working sets cannot both stay
// resident), while pairing each with a compute job spreads the LLC demand
// and halves the makespan.

// PlacementJob is one container instance in the study.
type PlacementJob struct {
	Image string
	// Core is the core index the placement assigns.
	Core int
	// Runtime is the measured execution time.
	Runtime ktime.Duration
}

// Placement is one assignment of the four jobs.
type Placement struct {
	Name string
	Jobs []PlacementJob
	// Makespan is when the last job finished.
	Makespan ktime.Duration
}

// PlacementResult compares the assignments.
type PlacementResult struct {
	// Images are the four job images (two LLC-resident, two compute).
	Images     [4]string
	Placements []Placement
}

// Find returns a placement by name.
func (r *PlacementResult) Find(name string) (Placement, bool) {
	for _, p := range r.Placements {
		if p.Name == name {
			return p, true
		}
	}
	return Placement{}, false
}

// RunPlacement runs {mem, mem, comp, comp} under both assignments on a
// two-core shared-LLC socket:
//
//   - "serialize-memory": both memory jobs on core 0, both compute jobs on
//     core 1 — the LLC-hungry pair time-shares, never running concurrently;
//   - "mixed-pairs": one memory + one compute job per core — the memory
//     jobs overlap on the shared LLC about half the time.
func RunPlacement(p Params) (*PlacementResult, error) {
	const memImage, compImage = "mysql", "ruby"
	res := &PlacementResult{Images: [4]string{memImage, memImage, compImage, compImage}}

	run := func(name string, assignment [4]int) (Placement, error) {
		placed := Placement{Name: name}
		var procs []*kernel.Process
		_, err := session.RunCluster(session.ClusterSpec{
			Profile: ProfileFor(KLEB),
			Seed:    p.Seed,
			Cores:   2,
			Place: func(cores []*machine.Machine) error {
				for slot, coreIdx := range assignment {
					image := memImage
					if slot >= 2 {
						image = compImage
					}
					img, ok := workload.ImageByName(image)
					if !ok {
						return fmt.Errorf("placement: unknown image %q", image)
					}
					p := cores[coreIdx].Kernel().Spawn(
						fmt.Sprintf("%s-%d", image, slot), img.ScriptAt(slot).Program())
					procs = append(procs, p)
					placed.Jobs = append(placed.Jobs, PlacementJob{Image: image, Core: coreIdx})
				}
				return nil
			},
		})
		if err != nil {
			return Placement{}, err
		}
		for i, p := range procs {
			placed.Jobs[i].Runtime = p.Runtime()
			if end := p.ExitTime(); ktime.Duration(end) > placed.Makespan {
				placed.Makespan = ktime.Duration(end)
			}
		}
		return placed, nil
	}

	// The two assignments are independent socket runs; fan them out.
	assignments := []struct {
		name string
		at   [4]int
	}{
		// serialize-memory: mem jobs share core 0; compute jobs share core 1.
		{"serialize-memory", [4]int{0, 0, 1, 1}},
		// mixed-pairs: each core gets one memory and one compute job.
		{"mixed-pairs", [4]int{0, 1, 0, 1}},
	}
	placements := make([]Placement, len(assignments))
	errs := make([]error, len(assignments))
	session.Scheduler{Workers: p.Workers}.ForEach(len(assignments), func(i int) {
		placements[i], errs[i] = run(assignments[i].name, assignments[i].at)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res.Placements = placements
	return res, nil
}

// MemoryRuntime sums the memory-class jobs' runtimes in a placement.
func (p Placement) MemoryRuntime(memImage string) ktime.Duration {
	var total ktime.Duration
	for _, j := range p.Jobs {
		if j.Image == memImage {
			total += j.Runtime
		}
	}
	return total
}

// Check tests §IV-B's placement rule, measured: mixing classes per core
// clearly beats stacking the memory jobs, which pay for the bad
// placement, while the compute jobs do not care where they land.
func (r *PlacementResult) Check() error {
	var c claims
	mixed, okMixed := r.Find("mixed-pairs")
	stacked, okStacked := r.Find("serialize-memory")
	if !okMixed || !okStacked {
		c.failf("placements missing: mixed-pairs %v, serialize-memory %v", okMixed, okStacked)
		return c.err("placement")
	}
	if float64(mixed.Makespan) > 0.8*float64(stacked.Makespan) {
		c.failf("mixed pairing should clearly win: mixed=%v stacked=%v", mixed.Makespan, stacked.Makespan)
	}
	for _, p := range r.Placements {
		for _, j := range p.Jobs {
			if j.Image == "ruby" && j.Runtime > 2*ktime.Duration(1500*ktime.Millisecond) {
				c.failf("%s: ruby runtime %v implausible", p.Name, j.Runtime)
			}
		}
	}
	if stacked.MemoryRuntime("mysql") < mixed.MemoryRuntime("mysql") {
		c.failf("stacking should hurt the memory jobs most: mysql runtime %v stacked vs %v mixed",
			stacked.MemoryRuntime("mysql"), mixed.MemoryRuntime("mysql"))
	}
	return c.err("placement")
}

// Render writes the comparison.
func (r *PlacementResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Placement study — 4 containers on a 2-core shared-LLC socket")
	for _, p := range r.Placements {
		fmt.Fprintf(w, "\n%s (makespan %v):\n", p.Name, p.Makespan)
		for _, j := range p.Jobs {
			fmt.Fprintf(w, "  core %d: %-8s runtime %v\n", j.Core, j.Image, j.Runtime)
		}
	}
	fmt.Fprintln(w, "\nThe paper's §IV-B placement rule, measured: pairing each memory-")
	fmt.Fprintln(w, "intensive container with a computation-intensive one on a core beats")
	fmt.Fprintln(w, "stacking the memory-intensive pair — they would serialize on the CPU")
	fmt.Fprintln(w, "and still evict each other from the shared LLC.")
}
