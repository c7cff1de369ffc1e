package machine

import (
	"kleb/internal/cache"
	"kleb/internal/cpu"
	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/pmu"
	"kleb/internal/telemetry"
)

// Cluster is a multi-core socket: one Machine per core, each with a private
// L1/L2, branch predictor, PMU and OS instance, all contending for one
// shared last-level cache. An outer lockstep loop co-simulates the cores so
// their LLC accesses interleave — the substrate for the co-location
// scheduling study motivated by the paper's §IV-B ("the scheduler can
// colocate computation-intensive programs or containers with the
// memory-intensive ones on the same core, while scheduling the programs
// that require the same type of resources on different cores").
type Cluster struct {
	prof  Profile
	cores []*Machine
	llc   *cache.Cache
}

// BootCluster builds n cores around one shared LLC.
func BootCluster(prof Profile, seed uint64, n int) *Cluster {
	if n < 1 {
		n = 1
	}
	root := ktime.NewRand(seed)
	llc := cache.New(prof.CPU.Hierarchy.LLC)
	c := &Cluster{prof: prof, llc: llc}
	for i := 0; i < n; i++ {
		p := pmu.New(prof.Events)
		core := cpu.NewShared(prof.CPU, p, root.Split(), llc)
		kern := kernel.New(core, prof.Costs, root.Split(), prof.Kernel)
		c.cores = append(c.cores, &Machine{prof: prof, core: core, kern: kern})
	}
	return c
}

// Cores returns the per-core machines.
func (c *Cluster) Cores() []*Machine { return c.cores }

// SetTelemetry attaches one observability sink per core: sinks[i] observes
// core i (nil entries and a short slice leave the remaining cores
// uninstrumented). Cores get separate sinks rather than one shared sink so
// each stays single-owner per the telemetry contract; fold the per-core
// registries with Sink.Merge — commutative, so a cluster aggregate is
// independent of core order. Must be called before Run starts.
func (c *Cluster) SetTelemetry(sinks []*telemetry.Sink) {
	for i, s := range sinks {
		if i >= len(c.cores) {
			return
		}
		c.cores[i].Kernel().SetTelemetry(s)
	}
}

// SharedLLC returns the socket's last-level cache.
func (c *Cluster) SharedLLC() *cache.Cache { return c.llc }

// Release hands every core's private cache levels, then the shared LLC,
// back for reuse (see Machine.Release). Only the cluster releases the LLC,
// once every core is done with it: released while a sibling still used
// it, its arrays could be handed to a new cache, one array to two live
// caches.
func (c *Cluster) Release() {
	for _, m := range c.cores {
		m.Release()
	}
	c.llc.Release()
}

// Quantum is the lockstep window for co-simulation: small enough that
// cross-core LLC contention interleaves at sub-timeslice granularity,
// large enough to keep stepping overhead negligible.
const Quantum = 100 * ktime.Microsecond

// Run co-simulates every core in lockstep windows of Quantum until all
// cores are idle or limit virtual time has passed on every core (limit 0 =
// no limit). Within each window the cores advance independently; across
// windows their clocks stay within one quantum of each other, so
// shared-LLC interference is modeled at that granularity.
func (c *Cluster) Run(limit ktime.Duration) error {
	var deadline ktime.Time
	if limit > 0 {
		deadline = ktime.Time(limit)
	}
	for t := ktime.Time(Quantum); ; t = t.Add(Quantum) {
		anyAlive := false
		for _, m := range c.cores {
			if m.Kernel().Idle() {
				continue
			}
			anyAlive = true
			if err := m.Kernel().RunUntil(t); err != nil {
				return err
			}
		}
		if !anyAlive {
			return nil
		}
		if deadline > 0 && t >= deadline {
			return nil
		}
		// Idle fast-forward: when no core can run, nothing happens until the
		// earliest pending event, so the intervening lockstep windows are
		// pure clock advances — skip them in one jump. The jump lands on the
		// last grid point strictly before the event (capped at the deadline),
		// so the window boundaries after wake-up, and with them the shared-LLC
		// interleaving, match the unbatched schedule exactly; each kernel's
		// idle time telescopes to the same sum either way.
		if next, ok := c.idleUntil(); ok {
			if deadline > 0 && next > deadline {
				next = deadline
			}
			if next > t.Add(Quantum) {
				// Skip every whole window that ends before next; the loop's
				// increment then lands on the first grid point ≥ next.
				steps := uint64(next.Sub(t)-1) / uint64(Quantum)
				t = t.Add(ktime.Duration(steps) * Quantum)
			}
		}
	}
}

// idleUntil returns the earliest pending event across all live cores, but
// only when none of them is runnable — a runnable core can mutate shared
// state inside any window, so no window may be skipped.
func (c *Cluster) idleUntil() (ktime.Time, bool) {
	var best ktime.Time
	ok := false
	for _, m := range c.cores {
		k := m.Kernel()
		if k.Idle() {
			continue
		}
		if k.Runnable() {
			return 0, false
		}
		at, has := k.NextEventAt()
		if !has {
			continue
		}
		if !ok || at < best {
			best, ok = at, true
		}
	}
	return best, ok
}
