package machine

import (
	"reflect"
	"testing"

	"kleb/internal/cache"
	"kleb/internal/isa"
	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/pmu"
)

// busyProg runs blocks over a footprint then exits.
func busyProg(blocks int, base, footprint uint64) kernel.Program {
	i := 0
	return kernel.ProgramFunc(func(k *kernel.Kernel, p *kernel.Process) kernel.Op {
		if i >= blocks {
			return kernel.OpExit{}
		}
		i++
		return kernel.OpExec{Block: &isa.Block{
			Instr: 200_000, Loads: 70_000, Stores: 20_000, Branches: 15_000,
			Mem:  isa.MemPattern{Base: base, Footprint: footprint, Stride: 8, RandomFrac: 0.3},
			Priv: isa.User,
		}}
	})
}

func quiet() Profile {
	p := Nehalem()
	p.Costs.NoiseRel = 0
	p.Costs.TimerJitterRel = 0
	p.Costs.RunNoiseRel = 0
	return p
}

func TestClusterBootShape(t *testing.T) {
	c := BootCluster(quiet(), 1, 2)
	if len(c.Cores()) != 2 {
		t.Fatalf("cores: %d", len(c.Cores()))
	}
	// All cores front the same LLC instance, but keep private L1/L2.
	llc := c.SharedLLC()
	for i, m := range c.Cores() {
		if m.Core().Caches().LLC() != llc {
			t.Errorf("core %d has a private LLC", i)
		}
		for j, other := range c.Cores() {
			if i != j && m.Core().Caches().L1D() == other.Core().Caches().L1D() {
				t.Error("cores share an L1")
			}
		}
	}
	if BootCluster(quiet(), 1, 0).Cores() == nil {
		t.Error("degenerate size should clamp to one core")
	}
}

func TestClusterRunsCoresInLockstep(t *testing.T) {
	c := BootCluster(quiet(), 2, 2)
	pa := c.Cores()[0].Kernel().Spawn("a", busyProg(100, 0x1000_0000, 1<<20))
	pb := c.Cores()[1].Kernel().Spawn("b", busyProg(100, 0x2000_0000, 1<<20))
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if !pa.Exited() || !pb.Exited() {
		t.Fatal("processes did not finish")
	}
	// Identical work on identical cores: exit times within a quantum or so
	// of each other (they run concurrently, not serialized).
	gap := pa.ExitTime().Sub(pb.ExitTime())
	if pb.ExitTime() > pa.ExitTime() {
		gap = pb.ExitTime().Sub(pa.ExitTime())
	}
	if gap > 10*Quantum {
		t.Errorf("cores diverged by %v; lockstep broken", gap)
	}
}

func TestClusterSharedLLCContention(t *testing.T) {
	// An LLC-resident worker (6MB on the 8MB LLC) alone vs next to a
	// streaming neighbour: the neighbour must slow it down.
	solo := BootCluster(quiet(), 3, 2)
	p := solo.Cores()[0].Kernel().Spawn("victim", busyProg(400, 0x1000_0000, 6<<20))
	if err := solo.Run(0); err != nil {
		t.Fatal(err)
	}
	alone := p.Runtime()

	shared := BootCluster(quiet(), 3, 2)
	v := shared.Cores()[0].Kernel().Spawn("victim", busyProg(400, 0x1000_0000, 6<<20))
	shared.Cores()[1].Kernel().Spawn("stream", busyProg(2000, 0x9000_0000, 64<<20))
	if err := shared.Run(0); err != nil {
		t.Fatal(err)
	}
	contended := v.Runtime()

	if float64(contended) < 1.1*float64(alone) {
		t.Errorf("no LLC contention visible: alone=%v contended=%v", alone, contended)
	}
}

func TestClusterRunLimit(t *testing.T) {
	c := BootCluster(quiet(), 4, 2)
	c.Cores()[0].Kernel().Spawn("forever", kernel.ProgramFunc(
		func(k *kernel.Kernel, p *kernel.Process) kernel.Op {
			return kernel.OpExec{Block: &isa.Block{
				Instr: 100_000, Loads: 20_000,
				Mem:  isa.MemPattern{Base: 0x1000, Footprint: 64 << 10, Stride: 8},
				Priv: isa.User,
			}}
		}))
	if err := c.Run(5 * ktime.Millisecond); err != nil {
		t.Fatal(err)
	}
	now := c.Cores()[0].Kernel().Now()
	if now < ktime.Time(5*ktime.Millisecond) || now > ktime.Time(6*ktime.Millisecond) {
		t.Errorf("limit not honored: %v", now)
	}
}

func TestClusterPerCorePMUsIndependent(t *testing.T) {
	c := BootCluster(quiet(), 5, 2)
	// Program core 0's PMU only; core 1's work must not land in it.
	pm0 := c.Cores()[0].Core().PMU()
	enc, _ := quiet().Events.EncodingFor(isa.EvLoads)
	if err := pm0.WriteMSR(0x186, enc.Sel(1<<16|1<<22)); err != nil { // USR|EN
		t.Fatal(err)
	}
	if err := pm0.WriteMSR(0x38F, 1); err != nil {
		t.Fatal(err)
	}
	c.Cores()[1].Kernel().Spawn("other", busyProg(50, 0x5000_0000, 1<<20))
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if v, _ := pm0.ReadMSR(0xC1); v != 0 {
		t.Errorf("core 1's loads leaked into core 0's PMU: %d", v)
	}
}

// TestClusterIndependentMonitoringPerCore proves per-core K-LEB isolation
// at the machine level indirectly: each core's kernel carries its own
// module registry and devices, so two cores can host independent
// monitoring stacks without any shared state beyond the LLC.
func TestClusterIndependentKernelsPerCore(t *testing.T) {
	c := BootCluster(quiet(), 7, 2)
	k0, k1 := c.Cores()[0].Kernel(), c.Cores()[1].Kernel()
	if k0 == k1 {
		t.Fatal("cores share a kernel")
	}
	// The same device name registers independently on each core's kernel.
	if err := k0.RegisterDevice("dev", nil); err != nil {
		t.Fatal(err)
	}
	if err := k1.RegisterDevice("dev", nil); err != nil {
		t.Errorf("core 1's device namespace collided with core 0's: %v", err)
	}
	if err := k0.RegisterDevice("dev", nil); err == nil {
		t.Error("same-kernel collision not detected")
	}
}

// TestClusterRelease: a core's Release leaves the shared LLC to its
// siblings, and Cluster.Release, even called twice, gives the LLC's arrays
// up exactly once, so two caches of its geometry built afterwards never
// share an array.
func TestClusterRelease(t *testing.T) {
	c := BootCluster(quiet(), 3, 2)
	c.Cores()[0].Kernel().Spawn("a", busyProg(20, 0x1000_0000, 1<<20))
	c.Cores()[1].Kernel().Spawn("b", busyProg(20, 0x2000_0000, 1<<20))
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	c.Cores()[0].Release()
	llc := c.SharedLLC()
	llc.Access(0x3000_0000)
	if !llc.Contains(0x3000_0000) {
		t.Fatal("a core's Release disturbed the shared LLC")
	}
	c.Release()
	c.Release()
	cfg := quiet().CPU.Hierarchy.LLC
	a, b := cache.New(cfg), cache.New(cfg)
	a.Access(0x4000_0000)
	if b.Contains(0x4000_0000) {
		t.Fatal("two live caches built after Cluster.Release share one array")
	}
	a.Release()
	b.Release()
}

// runEveryWindow is Cluster.Run without the idle fast-forward: the
// reference that visits every lockstep window. It also counts the windows
// after which idleUntil allowed Run's jump.
func runEveryWindow(c *Cluster, quantum, limit ktime.Duration) (jumps int, err error) {
	var deadline ktime.Time
	if limit > 0 {
		deadline = ktime.Time(limit)
	}
	for t := ktime.Time(quantum); ; t = t.Add(quantum) {
		anyAlive := false
		for _, m := range c.cores {
			if m.Kernel().Idle() {
				continue
			}
			anyAlive = true
			if err := m.Kernel().RunUntil(t); err != nil {
				return jumps, err
			}
		}
		if !anyAlive || (deadline > 0 && t >= deadline) {
			return jumps, nil
		}
		if next, ok := c.idleUntil(); ok && next > t.Add(quantum) {
			jumps++
		}
	}
}

// sleeper alternates a short block with a long high-resolution sleep, so
// its core spends most windows idle.
func sleeper(rounds int, sleep ktime.Duration, base uint64) kernel.Program {
	i := 0
	return kernel.ProgramFunc(func(k *kernel.Kernel, p *kernel.Process) kernel.Op {
		if i >= 2*rounds {
			return kernel.OpExit{}
		}
		i++
		if i%2 == 0 {
			return kernel.OpSleep{D: sleep, HR: true}
		}
		return kernel.OpExec{Block: &isa.Block{
			Instr: 300_000, Loads: 90_000, Stores: 30_000, Branches: 20_000,
			Mem:  isa.MemPattern{Base: base, Footprint: 2 << 20, Stride: 8, RandomFrac: 0.2},
			Priv: isa.User,
		}}
	})
}

// TestIdleFastForwardMatchesEveryWindow: Cluster.Run's idle jump must leave
// every observable exactly as stepping each lockstep window would — per
// core clock, idle time and PMU register file, and per process runtimes —
// both when the cores run to completion and when a deadline cuts them off.
func TestIdleFastForwardMatchesEveryWindow(t *testing.T) {
	type observed struct {
		Now             []ktime.Time
		Idle            []ktime.Duration
		PMU             []string
		Run, User, Kern []ktime.Duration
		Exited          []bool
	}
	boot := func() (*Cluster, []*kernel.Process) {
		c := BootCluster(Nehalem(), 11, 2)
		var procs []*kernel.Process
		for i, sleep := range []ktime.Duration{3370 * ktime.Microsecond, 5110 * ktime.Microsecond} {
			m := c.Cores()[i]
			pm := m.Core().PMU()
			enc, _ := m.Profile().Events.EncodingFor(isa.EvLoads)
			for _, w := range []struct {
				addr uint32
				val  uint64
			}{
				{pmu.MSRPerfEvtSel0, enc.Sel(pmu.SelUsr | pmu.SelOS | pmu.SelEn)},
				{pmu.MSRFixedCtrCtrl, (pmu.FixedUsr | pmu.FixedOS) * 0x111}, // all three fixed counters
				{pmu.MSRGlobalCtrl, 1 | 7<<32},                              // PMC0 and the fixed counters
			} {
				if err := pm.WriteMSR(w.addr, w.val); err != nil {
					t.Fatal(err)
				}
			}
			procs = append(procs, m.Kernel().Spawn("sleeper", sleeper(12, sleep, uint64(i+1)<<28)))
		}
		return c, procs
	}
	observe := func(c *Cluster, procs []*kernel.Process) observed {
		var o observed
		for i, m := range c.Cores() {
			o.Now = append(o.Now, m.Kernel().Now())
			o.Idle = append(o.Idle, m.Kernel().IdleTime())
			o.PMU = append(o.PMU, m.Core().PMU().Snapshot())
			p := procs[i]
			o.Run = append(o.Run, p.Runtime())
			o.User = append(o.User, p.UserTime())
			o.Kern = append(o.Kern, p.KernelTime())
			o.Exited = append(o.Exited, p.Exited())
		}
		return o
	}
	for _, limit := range []ktime.Duration{0, 31 * ktime.Millisecond} {
		fast, fastProcs := boot()
		if err := fast.Run(limit); err != nil {
			t.Fatal(err)
		}
		ref, refProcs := boot()
		jumps, err := runEveryWindow(ref, Quantum, limit)
		if err != nil {
			t.Fatal(err)
		}
		if jumps == 0 {
			t.Errorf("limit %v: the idle jump never applied, so nothing was compared", limit)
		}
		if got, want := observe(fast, fastProcs), observe(ref, refProcs); !reflect.DeepEqual(got, want) {
			t.Errorf("limit %v: fast-forwarded run differs from the every-window run:\nfast  %+v\nwant  %+v", limit, got, want)
		}
	}
}
