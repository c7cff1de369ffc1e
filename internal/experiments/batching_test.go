package experiments

import (
	"reflect"
	"testing"

	"kleb/internal/fault"
	"kleb/internal/isa"
	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/monitor"
	"kleb/internal/session"
	"kleb/internal/workload"
)

// The run-length batching oracle. The kernel batches consecutive identical
// blocks of a compiled stream into one priced unit (kernel.executeRun);
// that is only legal when no simulated observable can tell. Each case below
// runs its program as built, and again behind a wrapper that hides
// PeekRun/ConsumeRun so every block goes through Next, and requires the two
// runs to agree on every observable. The cost memo and idle fast-forward
// run identically on both sides, so this checks batching alone.

// stream is what a batchable workload program offers: Next, the
// BlockStream fast path, and the PAPI/LiMiT instrumentation seam.
type stream interface {
	kernel.Program
	kernel.BlockStream
	workload.Instrumentable
}

// unbatched forwards Next, Script and Instrument but not PeekRun or
// ConsumeRun, so the kernel steps the program block by block.
type unbatched struct{ s stream }

func (u unbatched) Next(k *kernel.Kernel, p *kernel.Process) kernel.Op { return u.s.Next(k, p) }
func (u unbatched) Script() workload.Script                            { return u.s.Script() }
func (u unbatched) Instrument(prelude []kernel.Op, every uint64, hook func(k *kernel.Kernel, p *kernel.Process) []kernel.Op) {
	u.s.Instrument(prelude, every, hook)
}

// counted forwards everything and counts the block copies the kernel
// batched through ConsumeRun.
type counted struct {
	stream
	copies *uint64
}

func (c counted) ConsumeRun(n uint64) {
	*c.copies += n
	c.stream.ConsumeRun(n)
}

// batching is one side of a case: the batched run counts the copies it
// batched, the unbatched one hides the fast path.
type batching struct {
	off    bool
	copies uint64
}

func (b *batching) wrap(s stream) kernel.Program {
	if b.off {
		return unbatched{s}
	}
	return counted{s, &b.copies}
}

// spawner wraps the programs its inner program spawns, for targets such as
// the Docker engine that build their workload child internally.
type spawner struct {
	kernel.Program
	b *batching
}

func (s spawner) Next(k *kernel.Kernel, p *kernel.Process) kernel.Op {
	op := s.Program.Next(k, p)
	if sp, ok := op.(kernel.OpSpawn); ok {
		sp.Prog = s.b.wrap(sp.Prog.(stream))
		return sp
	}
	return op
}

// observed is what the two sides of a case must agree on: per target
// process its elapsed, user and kernel time, per core the final clock, and
// the tool's collected result.
type observed struct {
	Elapsed, User, Kern []ktime.Duration
	Clock               []ktime.Time
	Result              monitor.Result
}

// runner executes a case once with its programs wrapped by b.
type runner func(t *testing.T, b *batching) observed

// specRun runs spec with the target target builds.
func specRun(spec session.Spec, target func(b *batching) kernel.Program) runner {
	return func(t *testing.T, b *batching) observed {
		s := spec
		s.NewTarget = func() kernel.Program { return target(b) }
		res, err := session.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return observed{
			Elapsed: []ktime.Duration{res.Elapsed},
			User:    []ktime.Duration{res.TargetUser},
			Kern:    []ktime.Duration{res.TargetKern},
			Clock:   []ktime.Time{res.Machine.Kernel().Now()},
			Result:  res.Result,
		}
	}
}

// scriptTarget builds script's program behind b.
func scriptTarget(script workload.Script) func(b *batching) kernel.Program {
	return func(b *batching) kernel.Program { return b.wrap(script.Program()) }
}

// toolSpec is a run of kind on its machine at period over events.
func toolSpec(kind ToolKind, seed uint64, period ktime.Duration, events []isa.Event) session.Spec {
	return session.Spec{
		Profile: ProfileFor(kind),
		Seed:    seed,
		NewTool: toolFactory(kind, 0),
		Config:  monitor.Config{Events: events, Period: period, ExcludeKernel: true},
	}
}

// clusterRun runs one script per core on a shared-LLC socket.
func clusterRun(scripts ...workload.Script) runner {
	return func(t *testing.T, b *batching) observed {
		var procs []*kernel.Process
		c, err := session.RunCluster(session.ClusterSpec{
			Profile: ProfileFor(KLEB),
			Seed:    1,
			Cores:   len(scripts),
			Place: func(cores []*machine.Machine) error {
				for i, s := range scripts {
					procs = append(procs, cores[i].Kernel().Spawn(s.Name, b.wrap(s.Program())))
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		var o observed
		for i, p := range procs {
			o.Elapsed = append(o.Elapsed, p.Runtime())
			o.User = append(o.User, p.UserTime())
			o.Kern = append(o.Kern, p.KernelTime())
			o.Clock = append(o.Clock, c.Cores()[i].Kernel().Now())
		}
		return o
	}
}

// TestBatchingIsInvisible is the proof obligation behind run-length
// batching: for every tool, both overhead workloads, the serve model's
// checkpoint and hook caps, Meltdown's flush blocks, a Docker engine's
// child, an oversubscribed perf stat mix, a fault plan and a 2-core
// socket, the batched run must be indistinguishable from the unbatched
// one. Every case must also batch at least once, unless perStep names it.
func TestBatchingIsInvisible(t *testing.T) {
	// Cases that may legitimately never batch, with the reason.
	perStep := map[string]string{
		"kleb-100us/triple": "a triple-loop block runs about 0.8ms, so no two fit before the next 100µs timer",
	}
	check := func(name string, run runner) {
		t.Run(name, func(t *testing.T) {
			on, off := &batching{}, &batching{off: true}
			got, want := run(t, on), run(t, off)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("batched run differs from the block-by-block run:\nbatched   %+v\nunbatched %+v", got, want)
			}
			t.Logf("batched %d block copies", on.copies)
			if reason, ok := perStep[name]; ok {
				t.Logf("per-step case: %s", reason)
			} else if on.copies == 0 {
				t.Error("never batched a block, so the case does not exercise batching")
			}
		})
	}

	triple := workload.NewTripleLoopMatmul().Script()
	attack := workload.NewMeltdown().AttackScript()
	llc := []isa.Event{isa.EvLLCRefs, isa.EvLLCMisses, isa.EvInstructions}
	ms10, us100 := 10*ktime.Millisecond, 100*ktime.Microsecond

	for _, kind := range AllTools() {
		check(string(kind)+"/triple", specRun(toolSpec(kind, 1, ms10, defaultEvents()), scriptTarget(triple)))
	}
	check("kleb-100us/triple", specRun(toolSpec(KLEB, 1, us100, defaultEvents()), scriptTarget(triple)))
	check("perf-record/dgemm", specRun(toolSpec(PerfRecord, 2, ms10, defaultEvents()),
		scriptTarget(workload.NewDgemmMatmul().Script())))
	check("papi/serve", specRun(toolSpec(PAPI, 1, ms10, defaultEvents()), func(b *batching) kernel.Program {
		return b.wrap(workload.NewServe().Program(1))
	}))
	check("kleb-100us/meltdown-attack", specRun(toolSpec(KLEB, 1, us100, llc), scriptTarget(attack)))
	check("perf-stat/meltdown-attack", specRun(toolSpec(PerfStat, 1, ms10, llc), scriptTarget(attack)))
	mysql, _ := workload.ImageByName("mysql")
	check("kleb/docker-mysql", specRun(toolSpec(KLEB, 1, ms10, []isa.Event{isa.EvLLCMisses, isa.EvInstructions}),
		func(b *batching) kernel.Program { return spawner{workload.DockerRun(mysql), b} }))
	check("perf-stat/multiplex", specRun(toolSpec(PerfStat, 1, ms10, multiplexPool()), scriptTarget(triple)))
	check("kleb/fault-plan", func(t *testing.T, b *batching) observed {
		spec := toolSpec(KLEB, 3, ms10, defaultEvents())
		spec.Faults = fault.FromSeed(3) // a plan carries decision state: one per run
		spec.Limit = 5 * ktime.Second
		return specRun(spec, scriptTarget(triple))(t, b)
	})
	// Blocks short enough to batch inside one lockstep window, over a
	// footprint both cores contend for in the shared LLC.
	w := workload.Synthetic{Name: "synthetic", TotalInstr: 50_000_000, BlockInstr: 20_000, Footprint: 4 << 20}.Script()
	check("cluster/2-core", clusterRun(w, w))
}
