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

// The co-location study: the paper's §IV-B argues that K-LEB's online MPKI
// classification lets a cloud scheduler place containers so that workloads
// contending for the same resource do not run concurrently (citing Torres
// et al. and Arteaga et al.). This experiment makes that concrete on the
// shared-LLC cluster substrate: it measures the pairwise slowdown of
// containers running on two cores of one socket and shows that the MPKI
// classes collected by K-LEB predict which pairings interfere.

// ColocateCell is one (workload, neighbour) measurement.
type ColocateCell struct {
	Image     string
	Neighbour string // "" for the solo baseline
	Runtime   ktime.Duration
	// Slowdown is Runtime over the image's solo runtime on the same
	// hardware.
	Slowdown float64
}

// ColocateResult is the interference matrix.
type ColocateResult struct {
	Images []string
	Solo   map[string]ktime.Duration
	Cells  []ColocateCell
}

// Cell looks up the (image, neighbour) measurement.
func (r *ColocateResult) Cell(image, neighbour string) (ColocateCell, bool) {
	for _, c := range r.Cells {
		if c.Image == image && c.Neighbour == neighbour {
			return c, true
		}
	}
	return ColocateCell{}, false
}

// RunColocate measures each image's runtime alone on a core and next to
// each neighbour on the other core of a shared-LLC socket. Every socket
// run is independent, so the solo baselines and the full matrix fan out
// over one scheduler batch.
func RunColocate(p Params, images []string) (*ColocateResult, error) {
	res := &ColocateResult{Images: images, Solo: map[string]ktime.Duration{}}

	runPair := func(a, b string) (ktime.Duration, ktime.Duration, error) {
		var pa, pb *kernel.Process
		spawn := func(m *machine.Machine, image string, slot int) (*kernel.Process, error) {
			if image == "" {
				return nil, nil
			}
			img, ok := workload.ImageByName(image)
			if !ok {
				return nil, fmt.Errorf("colocate: unknown image %q", image)
			}
			return m.Kernel().Spawn(image, img.ScriptAt(slot).Program()), nil
		}
		_, err := session.RunCluster(session.ClusterSpec{
			Profile: ProfileFor(KLEB),
			Seed:    p.Seed,
			Cores:   2,
			Place: func(cores []*machine.Machine) error {
				var err error
				if pa, err = spawn(cores[0], a, 0); err != nil {
					return err
				}
				pb, err = spawn(cores[1], b, 1)
				return err
			},
		})
		if err != nil {
			return 0, 0, err
		}
		var ra, rb ktime.Duration
		if pa != nil {
			ra = pa.Runtime()
		}
		if pb != nil {
			rb = pb.Runtime()
		}
		return ra, rb, nil
	}

	// The job list: each image solo on core 0, then the upper-triangular
	// matrix (one socket run yields both the (a,b) and (b,a) cells).
	type job struct{ a, b string }
	var jobs []job
	for _, image := range images {
		jobs = append(jobs, job{image, ""})
	}
	for i, a := range images {
		for j, b := range images {
			if j < i {
				continue
			}
			jobs = append(jobs, job{a, b})
		}
	}
	type outcome struct {
		ra, rb ktime.Duration
		err    error
	}
	outs := make([]outcome, len(jobs))
	session.Scheduler{Workers: p.Workers}.ForEach(len(jobs), func(i int) {
		o := &outs[i]
		o.ra, o.rb, o.err = runPair(jobs[i].a, jobs[i].b)
	})
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
	}

	// Aggregate in job order: solo baselines first (the matrix cells'
	// slowdowns divide by them), then both sides of each pairing.
	for i, j := range jobs {
		if j.b == "" {
			res.Solo[j.a] = outs[i].ra
			res.Cells = append(res.Cells, ColocateCell{Image: j.a, Runtime: outs[i].ra, Slowdown: 1})
			continue
		}
		res.Cells = append(res.Cells,
			ColocateCell{Image: j.a, Neighbour: j.b, Runtime: outs[i].ra,
				Slowdown: float64(outs[i].ra) / float64(res.Solo[j.a])},
			ColocateCell{Image: j.b, Neighbour: j.a, Runtime: outs[i].rb,
				Slowdown: float64(outs[i].rb) / float64(res.Solo[j.b])})
	}
	return res, nil
}

// Check tests the placement rule the matrix exists to show: compute is
// immune to any neighbour, the LLC-resident container co-runs freely with
// compute but is hurt by anything that fights for the LLC (a streaming
// neighbour most), and the stream barely notices it. The claims name the
// registry's trio of images.
func (r *ColocateResult) Check() error {
	var c claims
	slow := func(image, neighbour string) float64 {
		cell, ok := r.Cell(image, neighbour)
		if !ok {
			c.failf("missing cell %s|%s", image, neighbour)
		}
		return cell.Slowdown
	}
	// The compute-intensive container is immune to any neighbour.
	for _, n := range r.Images {
		if s := slow("ruby", n); s > 1.05 {
			c.failf("ruby slowed %.2fx by %s; compute workloads should not care", s, n)
		}
	}
	// The LLC-resident container is fine next to compute, hurt next to
	// anything that fights for the LLC — the placement rule K-LEB's MPKI
	// classification exists to drive.
	if s := slow("mysql", "ruby"); s > 1.08 {
		c.failf("mysql|ruby %.2fx; different classes should co-run freely", s)
	}
	if s := slow("mysql", "mysql"); s < 1.12 {
		c.failf("mysql|mysql %.2fx; two LLC-resident sets must thrash a shared LLC", s)
	}
	if s := slow("mysql", "apache"); s < 1.3 {
		c.failf("mysql|apache %.2fx; a streaming neighbour should evict the resident set", s)
	}
	// Interference is asymmetric: the stream barely notices the victim.
	if s := slow("apache", "mysql"); s > 1.15 {
		c.failf("apache|mysql %.2fx; DRAM-bound streams should be mostly immune", s)
	}
	// And bad pairings hurt more than good ones, in order.
	if !(slow("mysql", "ruby") < slow("mysql", "mysql") && slow("mysql", "mysql") < slow("mysql", "apache")) {
		c.failf("interference ordering broken: mysql|ruby %.2fx, mysql|mysql %.2fx, mysql|apache %.2fx",
			slow("mysql", "ruby"), slow("mysql", "mysql"), slow("mysql", "apache"))
	}
	return c.err("colocate")
}

// Render writes the slowdown matrix.
func (r *ColocateResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Co-location interference — slowdown vs running alone (2 cores, shared LLC)")
	fmt.Fprintf(w, "%-10s %12s", "image", "solo")
	for _, n := range r.Images {
		fmt.Fprintf(w, " %10s", "vs "+n)
	}
	fmt.Fprintln(w)
	for _, image := range r.Images {
		fmt.Fprintf(w, "%-10s %12v", image, r.Solo[image])
		for _, n := range r.Images {
			if c, ok := r.Cell(image, n); ok {
				fmt.Fprintf(w, " %9.2fx", c.Slowdown)
			} else {
				fmt.Fprintf(w, " %10s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nPlacement rule validated: containers whose K-LEB MPKI classes both")
	fmt.Fprintln(w, "stress the LLC interfere when run concurrently; pairing a memory-")
	fmt.Fprintln(w, "intensive container with a computation-intensive one is nearly free.")
}
