package session_test

import (
	"reflect"
	"testing"

	"kleb/internal/cache"
	"kleb/internal/isa"
	"kleb/internal/kernel"
	"kleb/internal/kleb"
	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/monitor"
	"kleb/internal/session"
	"kleb/internal/workload"
)

// mustPanicOnAccess checks that c's storage was released: a released cache
// panics on its next Access instead of sharing arrays with a live one.
func mustPanicOnAccess(t *testing.T, name string, c *cache.Cache) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: Access after the run did not panic; its storage was not released", name)
		}
	}()
	c.Access(0)
}

// mustPanicOnRead checks that fs was released: reading a released
// filesystem panics instead of finding no file.
func mustPanicOnRead(t *testing.T, fs *kernel.FS) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("ReadFile after Drain did not panic; the filesystem was not released")
		}
	}()
	fs.ReadFile(kleb.DefaultLogPath)
}

// TestDrainReleasesStorage: Drain hands the machine's cache storage back
// and drops its filesystem's files, which the run wrote and could read
// until then, yet the Result still serves what callers read after a run —
// the kernel, its clock, the caches' Stats and Gen — and a second run of
// the same spec on this goroutine, booting into the recycled arrays,
// replays the first exactly.
func TestDrainReleasesStorage(t *testing.T) {
	spec := session.Spec{
		Profile:   machine.Nehalem(),
		Seed:      11,
		NewTarget: newTargetFactory(smallWorkload()),
		NewTool:   klebFactory,
		Config: monitor.Config{
			Events: []isa.Event{isa.EvInstructions, isa.EvLLCMisses},
			Period: ktime.Millisecond,
		},
	}
	sess := session.New(spec)
	if err := sess.Drive(); err != nil {
		t.Fatal(err)
	}
	m, _ := sess.Boot()
	if log, ok := m.Kernel().FS().ReadFile(kleb.DefaultLogPath); !ok || len(log) == 0 {
		t.Errorf("controller log unreadable between Drive and Drain (present %v, %d bytes)", ok, len(log))
	}
	first := sess.Drain()
	k := first.Machine.Kernel()
	if k.Now() < ktime.Time(first.Elapsed) {
		t.Errorf("kernel clock %v is before the target's lifetime %v ended", k.Now(), first.Elapsed)
	}
	mustPanicOnRead(t, k.FS())
	caches := first.Machine.Core().Caches()
	llc := caches.LLC()
	stats, gen := llc.Stats(), llc.Gen()
	if stats.Accesses == 0 || gen == 0 {
		t.Errorf("released LLC lost its readings: stats %+v, gen %d", stats, gen)
	}
	mustPanicOnAccess(t, "L1D", caches.L1D())
	mustPanicOnAccess(t, "LLC", llc)

	second, err := session.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Elapsed != first.Elapsed || second.TargetUser != first.TargetUser || second.TargetKern != first.TargetKern {
		t.Errorf("rerun on recycled storage: elapsed/user/kern %v/%v/%v, first run %v/%v/%v",
			second.Elapsed, second.TargetUser, second.TargetKern, first.Elapsed, first.TargetUser, first.TargetKern)
	}
	if !reflect.DeepEqual(second.Result, first.Result) {
		t.Error("rerun on recycled storage collected a different monitor.Result")
	}
	if s := second.Machine.Core().Caches().LLC().Stats(); s != stats {
		t.Errorf("rerun LLC stats %+v, first run %+v", s, stats)
	}
}

// clusterRun is one two-core cluster run and what a caller reads after it.
type clusterRun struct {
	c     *machine.Cluster
	procs []*kernel.Process
	res   monitor.Result
}

// runSmallCluster runs K-LEB on a synthetic workload on core 0 beside an
// unmonitored streaming neighbour on core 1.
func runSmallCluster(t *testing.T) clusterRun {
	t.Helper()
	tool := kleb.New()
	var procs []*kernel.Process
	c, err := session.RunCluster(session.ClusterSpec{
		Profile: machine.Nehalem(),
		Seed:    12,
		Place: func(cores []*machine.Machine) error {
			p, err := session.StartTarget(cores[0], "victim", smallWorkload().Program(), tool, monitor.Config{
				Events: []isa.Event{isa.EvInstructions, isa.EvLLCMisses}, Period: ktime.Millisecond,
			})
			if err != nil {
				return err
			}
			stream := workload.Synthetic{Name: "stream", TotalInstr: 200_000_000, Footprint: 16 << 20}.Script()
			procs = append(procs, p, cores[1].Kernel().Spawn("stream", stream.Program()))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return clusterRun{c: c, procs: procs, res: tool.Collect()}
}

// TestRunClusterReleasesStorage is TestDrainReleasesStorage for a cluster:
// RunCluster releases every core's caches and the shared LLC, the returned
// cluster still serves its clocks, processes and LLC readings, its tools
// still collect, and a rerun on the recycled storage replays exactly.
func TestRunClusterReleasesStorage(t *testing.T) {
	first := runSmallCluster(t)
	llc := first.c.SharedLLC()
	stats, gen := llc.Stats(), llc.Gen()
	if stats.Accesses == 0 || gen == 0 {
		t.Errorf("released shared LLC lost its readings: stats %+v, gen %d", stats, gen)
	}
	mustPanicOnAccess(t, "shared LLC", llc)
	for i, m := range first.c.Cores() {
		mustPanicOnAccess(t, "core L1D", m.Core().Caches().L1D())
		if m.Kernel().Now() == 0 {
			t.Errorf("core %d clock unreadable after the run", i)
		}
	}
	if len(first.res.Samples) == 0 {
		t.Fatal("K-LEB on core 0 collected nothing")
	}

	second := runSmallCluster(t)
	for i, m := range second.c.Cores() {
		if got, want := m.Kernel().Now(), first.c.Cores()[i].Kernel().Now(); got != want {
			t.Errorf("core %d clock on rerun %v, first run %v", i, got, want)
		}
	}
	for i, p := range second.procs {
		q := first.procs[i]
		if p.UserTime() != q.UserTime() || p.KernelTime() != q.KernelTime() {
			t.Errorf("%s CPU split on rerun %v/%v, first run %v/%v", p.Name(), p.UserTime(), p.KernelTime(), q.UserTime(), q.KernelTime())
		}
	}
	if s := second.c.SharedLLC().Stats(); s != stats {
		t.Errorf("rerun shared LLC stats %+v, first run %+v", s, stats)
	}
	if !reflect.DeepEqual(second.res, first.res) {
		t.Error("rerun on recycled storage collected a different monitor.Result")
	}
}
