package session

import "kleb/internal/machine"

// ClusterSpec describes one multi-core run: boot a shared-LLC socket,
// let Place spawn work (and attach tools, via StartTarget) on its cores,
// then drive the co-simulation.
type ClusterSpec struct {
	// Profile is the per-core machine profile.
	Profile machine.Profile
	// Seed drives the whole socket's noise.
	Seed uint64
	// Cores is the socket width (default 2).
	Cores int
	// Place spawns processes on the booted cores before anything runs.
	Place func(cores []*machine.Machine) error
	// Drive, when set, phases the run itself (e.g. run to an instant,
	// inject a neighbour, continue); when nil the cluster runs to
	// completion.
	Drive func(c *machine.Cluster) error
}

// RunCluster boots the socket, places the work and drives it, returning
// the cluster for post-run inspection. On every return path it releases
// the cluster's cache storage, the shared LLC included (see
// machine.Cluster.Release), as Session.Drain does for one machine: the
// cores' kernels, processes and clocks stay inspectable, and the tools
// attached in Place stay collectable, but nothing may run on the cluster
// again.
func RunCluster(spec ClusterSpec) (*machine.Cluster, error) {
	cores := spec.Cores
	if cores <= 0 {
		cores = 2
	}
	c := machine.BootCluster(spec.Profile, spec.Seed, cores)
	defer c.Release()
	if spec.Place != nil {
		if err := spec.Place(c.Cores()); err != nil {
			return nil, err
		}
	}
	if spec.Drive != nil {
		if err := spec.Drive(c); err != nil {
			return nil, err
		}
		return c, nil
	}
	if err := c.Run(0); err != nil {
		return nil, err
	}
	return c, nil
}
