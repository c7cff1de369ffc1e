package fleet

import (
	"fmt"

	"kleb/internal/fault"
	"kleb/internal/isa"
	"kleb/internal/kernel"
	klebtool "kleb/internal/kleb"
	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/monitor"
	"kleb/internal/session"
	"kleb/internal/telemetry"
	"kleb/internal/workload"
)

// fleetEvents is the per-node monitoring request: the paper's core trio.
var fleetEvents = []isa.Event{isa.EvInstructions, isa.EvCycles, isa.EvLLCMisses}

// nodeSeed derives node (i, round)'s run seed from the fleet seed alone —
// never from shard count — which is what makes the aggregate byte-identical
// at any Shards setting.
func nodeSeed(base uint64, node int, round uint64) uint64 {
	return session.DeriveSeed(session.DeriveSeed(base, node), int(round))
}

// runNode executes one node's monitoring round and returns its result.
// Infrastructure failures (a spec that cannot run) stop the fleet via
// f.fail; node-level faults merely degrade the result.
func (f *Fleet) runNode(node int, round uint64) nodeResult {
	seed := nodeSeed(f.cfg.Seed, node, round)
	if f.cfg.ClusterEvery > 0 && node%f.cfg.ClusterEvery == 0 {
		return f.runClusterNode(node, seed)
	}
	return f.runMonitoredNode(node, round, seed)
}

// runMonitoredNode boots one machine, runs a seeded workload under the
// full K-LEB stack and collects the run's telemetry plus its ledger.
func (f *Fleet) runMonitoredNode(node int, round uint64, seed uint64) nodeResult {
	script := nodeWorkload(seed, f.cfg.TargetInstr)
	var plan *fault.Plan
	if f.cfg.FaultEvery > 0 && (node+int(round))%f.cfg.FaultEvery == 0 {
		plan = fault.FromSeed(seed)
	}
	sink := telemetry.MetricsOnly()
	res, err := session.Run(session.Spec{
		Profile:   f.cfg.Profile,
		Seed:      seed,
		NewTarget: func() kernel.Program { return script.Program() },
		NewTool:   func() (monitor.Tool, error) { return klebtool.New(), nil },
		Config:    monitor.Config{Events: fleetEvents, Period: f.cfg.Period},
		Limit:     f.cfg.Limit,
		Telemetry: sink,
		Faults:    plan,
	})
	if err != nil {
		f.fail(fmt.Errorf("fleet: node %d round %d: %w", node, round, err))
		return nodeResult{node: node, sink: sink, degraded: true, fault: err.Error()}
	}
	r := res.Result
	out := nodeResult{
		node:     node,
		sink:     sink,
		elapsed:  res.Elapsed,
		fires:    r.Fires,
		captured: r.Captured,
		dropped:  r.Dropped,
		lost:     r.LostToFault,
		degraded: r.Degraded,
		fault:    r.Fault,
	}
	// The result is copied out, so the next node round on this shard can
	// boot into this machine's cache storage.
	res.Machine.Release()
	return out
}

// runClusterNode co-simulates a 2-core shared-LLC cluster with one
// telemetry sink per core and folds the cores into the node's sink — the
// commutative per-core merge the cluster tests pin. Cluster nodes carry no
// K-LEB ledger (no module attached); their contribution is kernel- and
// cache-level telemetry.
func (f *Fleet) runClusterNode(node int, seed uint64) nodeResult {
	c := machine.BootCluster(f.cfg.Profile, seed, 2)
	sinks := []*telemetry.Sink{telemetry.MetricsOnly(), telemetry.MetricsOnly()}
	c.SetTelemetry(sinks)
	for core, m := range c.Cores() {
		s := nodeWorkload(session.DeriveSeed(seed, core), f.cfg.TargetInstr)
		m.Kernel().Spawn(fmt.Sprintf("n%d-c%d", node, core), s.Program())
	}
	out := nodeResult{node: node, sink: telemetry.MetricsOnly()}
	if err := c.Run(0, f.cfg.Limit); err != nil {
		out.degraded, out.fault = true, err.Error()
	}
	var elapsed ktime.Duration
	for core, s := range sinks {
		if err := out.sink.Merge(s); err != nil {
			out.degraded, out.fault = true, err.Error()
		}
		now := ktime.Duration(c.Cores()[core].Kernel().Now())
		if now > elapsed {
			elapsed = now
		}
	}
	c.Release()
	out.elapsed = elapsed
	return out
}

// nodeWorkload derives a node run's workload from its seed: the same
// instruction budget everywhere, with seed-decorrelated memory footprints
// and access randomness so the fleet exercises a spread of cache
// behaviours.
func nodeWorkload(seed uint64, instr uint64) workload.Script {
	fp := uint64(1) << (16 + seed%6) // 64KiB .. 2MiB
	return workload.Synthetic{
		Name:       "fleet-node",
		TotalInstr: instr,
		BlockInstr: 100_000,
		Footprint:  fp,
		RandomFrac: 0.1 * float64(seed%5),
	}.Script()
}
