package experiments

import (
	"fmt"
	"io"

	"kleb/internal/isa"
	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/monitor"
	"kleb/internal/session"
	"kleb/internal/trace"
	"kleb/internal/workload"
)

// DockerRow is one image's MPKI measurement on one machine.
type DockerRow struct {
	Image     string
	Machine   string
	LLCMisses uint64
	Instr     uint64
	MPKI      float64
	Class     workload.WorkloadClass // classification from the measurement
	Expected  workload.WorkloadClass // the paper's classification
}

// DockerResult is the Fig 5 dataset.
type DockerResult struct {
	Rows []DockerRow
}

// RunDocker regenerates Fig 5: K-LEB attaches to the Docker engine process
// for each image, follows the container child via lineage tracking, and
// the LLC-miss/instruction totals classify the image by MPKI. It runs on
// both the Nehalem and the Cascade Lake profile, whose MPKI *trend* must
// match even though absolute counts differ (§IV-B).
func RunDocker(p Params) (*DockerResult, error) {
	const period = 10 * ktime.Millisecond
	profiles := []machine.Profile{machine.Nehalem(), machine.CascadeLake()}
	res := &DockerResult{}
	type job struct {
		prof machine.Profile
		img  workload.ContainerImage
	}
	var jobs []job
	var specs []session.Spec
	for _, prof := range profiles {
		for _, img := range workload.Images() {
			jobs = append(jobs, job{prof, img})
			specs = append(specs, session.Spec{
				Profile:    prof,
				Seed:       p.Seed + uint64(workload.ClassSeed(img.Name)),
				TargetName: "dockerd-" + img.Name,
				NewTarget:  func() kernel.Program { return workload.DockerRun(img) },
				NewTool:    toolFactory(KLEB, 0),
				Config: monitor.Config{
					Events:        []isa.Event{isa.EvLLCMisses, isa.EvInstructions},
					Period:        period,
					ExcludeKernel: true,
				},
			})
		}
	}
	runs, err := runAll(p.Workers, specs)
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		misses := runs[i].Result.Totals[isa.EvLLCMisses]
		instr := runs[i].Result.Totals[isa.EvInstructions]
		mpki := trace.MPKI(misses, instr)
		res.Rows = append(res.Rows, DockerRow{
			Image:     j.img.Name,
			Machine:   j.prof.Name,
			LLCMisses: misses,
			Instr:     instr,
			MPKI:      mpki,
			Class:     workload.ClassifyMPKI(mpki),
			Expected:  j.img.Class,
		})
	}
	return res, nil
}

// RowsFor returns the rows measured on one machine profile.
func (r *DockerResult) RowsFor(machineName string) []DockerRow {
	var out []DockerRow
	for _, row := range r.Rows {
		if row.Machine == machineName {
			out = append(out, row)
		}
	}
	return out
}

// Render writes the Fig 5 table.
func (r *DockerResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig 5 — LLC misses per kilo-instruction for Docker images (via K-LEB lineage tracking)")
	fmt.Fprintf(w, "%-10s %-22s %12s %14s %8s  %-24s %s\n",
		"image", "machine", "LLC misses", "instructions", "MPKI", "classified", "matches paper")
	for _, row := range r.Rows {
		match := "yes"
		if row.Class != row.Expected {
			match = "NO"
		}
		fmt.Fprintf(w, "%-10s %-22s %12d %14d %8.2f  %-24s %s\n",
			row.Image, row.Machine, row.LLCMisses, row.Instr, row.MPKI, row.Class, match)
	}
}
