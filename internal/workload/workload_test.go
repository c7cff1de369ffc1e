package workload

import (
	"reflect"
	"strings"
	"testing"

	"kleb/internal/cache"
	"kleb/internal/cpu"
	"kleb/internal/isa"
	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/pmu"
)

func testKernel(seed uint64) *kernel.Kernel {
	cfg := cpu.Config{
		Freq:              ktime.MHz(2000),
		BaseCPI:           0.5,
		BranchMissPenalty: 15,
		FlushCycles:       50,
		Hierarchy: cache.HierarchyConfig{
			L1D:              cache.Config{Name: "L1D", Size: 32 << 10, LineSize: 64, Ways: 8, LatencyCycles: 4},
			L2:               cache.Config{Name: "L2", Size: 256 << 10, LineSize: 64, Ways: 8, LatencyCycles: 10},
			LLC:              cache.Config{Name: "LLC", Size: 4 << 20, LineSize: 64, Ways: 16, LatencyCycles: 38},
			MemLatencyCycles: 200,
		},
		MaxSimAccesses: 128,
	}
	core := cpu.New(cfg, pmu.New(nil), ktime.NewRand(seed))
	costs := kernel.DefaultCosts()
	costs.NoiseRel = 0
	costs.RunNoiseRel = 0
	return kernel.New(core, costs, ktime.NewRand(seed), kernel.Options{})
}

func TestScriptTotals(t *testing.T) {
	s := Script{Phases: []Phase{
		{TotalInstr: 1000, FPsPerK: 100},
		{TotalInstr: 2000, FPsPerK: 50},
	}}
	if s.TotalInstr() != 3000 {
		t.Errorf("TotalInstr %d", s.TotalInstr())
	}
	if s.TotalFPOps() != 200 {
		t.Errorf("TotalFPOps %d", s.TotalFPOps())
	}
}

func TestScriptProgramExecutesAllInstructions(t *testing.T) {
	s := Script{Name: "two-phase", Phases: []Phase{
		{Name: "a", TotalInstr: 950_000, BlockInstr: 300_000, LoadsPerK: 100,
			Mem: isa.MemPattern{Base: 0x1000, Footprint: 4096, Stride: 8}},
		{Name: "b", TotalInstr: 450_000, BlockInstr: 200_000, StoresPerK: 50,
			Mem: isa.MemPattern{Base: 0x2000, Footprint: 4096, Stride: 8}},
	}}
	k := testKernel(1)
	prog := s.Program()
	var instr uint64
	wrapped := kernel.ProgramFunc(func(k *kernel.Kernel, p *kernel.Process) kernel.Op {
		op := prog.Next(k, p)
		if ex, ok := op.(kernel.OpExec); ok {
			instr += ex.Block.Instr
		}
		return op
	})
	proc := k.Spawn("w", wrapped)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !proc.Exited() {
		t.Fatal("program did not exit")
	}
	if instr != s.TotalInstr() {
		t.Errorf("emitted %d instructions, script declares %d", instr, s.TotalInstr())
	}
}

func TestScriptProgramPhaseNames(t *testing.T) {
	s := Script{Phases: []Phase{
		{Name: "first", TotalInstr: 100, BlockInstr: 100},
		{Name: "second", TotalInstr: 100, BlockInstr: 100},
	}}
	sp := s.Program()
	if sp.PhaseName() != "first" {
		t.Errorf("initial phase %q", sp.PhaseName())
	}
	if sp.Script().TotalInstr() != 200 {
		t.Error("Script accessor broken")
	}
}

func TestHooksFireAtStrategicPoints(t *testing.T) {
	s := Script{Phases: []Phase{{
		TotalInstr: 1_000_000, BlockInstr: 50_000, LoadsPerK: 10,
		Mem: isa.MemPattern{Base: 0x1000, Footprint: 4096, Stride: 8},
	}}}
	sp := s.Program()
	hooks := 0
	sp.HookEvery = 100_000
	sp.Hook = func(k *kernel.Kernel, p *kernel.Process) []kernel.Op {
		hooks++
		return nil
	}
	k := testKernel(2)
	k.Spawn("w", sp)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	// 10 in-run points plus the final end-of-program hook.
	if hooks < 10 || hooks > 12 {
		t.Errorf("hooks fired %d times, want ≈11", hooks)
	}
}

func TestHookOpsAreExecuted(t *testing.T) {
	s := Script{Phases: []Phase{{
		TotalInstr: 400_000, BlockInstr: 100_000,
		Mem: isa.MemPattern{Base: 0x1000, Footprint: 4096, Stride: 8},
	}}}
	sp := s.Program()
	sp.HookEvery = 200_000
	executed := 0
	sp.Hook = func(k *kernel.Kernel, p *kernel.Process) []kernel.Op {
		return []kernel.Op{kernel.OpSyscall{Name: "mark", Fn: func(*kernel.Kernel, *kernel.Process) any {
			executed++
			return nil
		}}}
	}
	k := testKernel(3)
	k.Spawn("w", sp)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if executed < 2 {
		t.Errorf("hook ops executed %d times", executed)
	}
}

func TestPreludeRunsFirst(t *testing.T) {
	s := Script{Phases: []Phase{{
		TotalInstr: 100_000, BlockInstr: 100_000,
		Mem: isa.MemPattern{Base: 0x1000, Footprint: 4096, Stride: 8},
	}}}
	sp := s.Program()
	var order []string
	sp.Prelude = []kernel.Op{kernel.OpSyscall{Name: "init", Fn: func(*kernel.Kernel, *kernel.Process) any {
		order = append(order, "prelude")
		return nil
	}}}
	sp.HookEvery = 100_000
	sp.Hook = func(k *kernel.Kernel, p *kernel.Process) []kernel.Op {
		order = append(order, "hook")
		return nil
	}
	k := testKernel(4)
	k.Spawn("w", sp)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(order) < 2 || order[0] != "prelude" {
		t.Errorf("order: %v", order)
	}
}

func TestLinpackFlops(t *testing.T) {
	lp := NewLinpack(5000)
	want := uint64(2)*5000*5000*5000/3 + 2*5000*5000
	if lp.Flops() != want {
		t.Errorf("flops %d want %d", lp.Flops(), want)
	}
	s := lp.Script()
	if len(s.Phases) != 2+lp.Cycles*3 {
		t.Errorf("phase count %d, want init+setup+%d solve cycles", len(s.Phases), lp.Cycles)
	}
	if s.Phases[0].Priv != isa.Kernel {
		t.Error("LINPACK init must run in kernel mode (flat user counters in Fig 4)")
	}
	// Smaller problems run proportionally less work.
	small := NewLinpack(2500).Script()
	if small.TotalInstr() >= s.TotalInstr() {
		t.Error("problem size scaling broken")
	}
}

func TestMatmulScripts(t *testing.T) {
	tl := NewTripleLoopMatmul()
	dg := NewDgemmMatmul()
	if tl.Flops() != dg.Flops() {
		t.Error("both matmuls should do the same nominal flops")
	}
	if tl.Script().TotalInstr() <= dg.Script().TotalInstr() {
		t.Error("the naive loop should retire more instructions than dgemm")
	}
	// dgemm's kernel tile must be cache-resident (that is the point).
	kern := dg.Script().Phases[1]
	if kern.Mem.Footprint > 64<<10 {
		t.Errorf("dgemm tile footprint %d too large", kern.Mem.Footprint)
	}
}

func TestImagesCatalog(t *testing.T) {
	imgs := Images()
	if len(imgs) != 9 {
		t.Fatalf("expected 9 images, got %d", len(imgs))
	}
	classes := map[WorkloadClass]int{}
	for _, img := range imgs {
		classes[img.Class]++
		s := img.Script()
		if s.TotalInstr() == 0 {
			t.Errorf("%s: empty script", img.Name)
		}
		if _, ok := ImageByName(img.Name); !ok {
			t.Errorf("%s: lookup failed", img.Name)
		}
	}
	if classes[MemoryIntensive] != 3 || classes[ComputeIntensive] != 6 {
		t.Errorf("class split: %v", classes)
	}
	if _, ok := ImageByName("no-such-image"); ok {
		t.Error("bogus image resolved")
	}
}

func TestClassifyMPKI(t *testing.T) {
	if ClassifyMPKI(9.99) != ComputeIntensive {
		t.Error("below threshold should be compute")
	}
	if ClassifyMPKI(10.01) != MemoryIntensive {
		t.Error("above threshold should be memory")
	}
}

func TestDockerRunSpawnsChildAndWaits(t *testing.T) {
	img, _ := ImageByName("ruby")
	k := testKernel(5)
	engine := k.Spawn("dockerd", DockerRun(img))
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !engine.Exited() {
		t.Fatal("engine did not exit")
	}
	var child *kernel.Process
	for _, p := range k.Processes() {
		if p.PPID() == engine.PID() {
			child = p
		}
	}
	if child == nil {
		t.Fatal("no container child spawned")
	}
	if !child.Exited() {
		t.Error("child still alive")
	}
	if engine.ExitTime() < child.ExitTime() {
		t.Error("engine exited before its container")
	}
	if child.UserTime() <= engine.UserTime() {
		t.Error("the container should do the bulk of the work")
	}
}

func TestMeltdownScripts(t *testing.T) {
	m := NewMeltdown()
	v, a := m.VictimScript(), m.AttackScript()
	if a.TotalInstr() <= v.TotalInstr() {
		t.Error("attack adds work")
	}
	var flushes uint64
	for _, ph := range a.Phases {
		flushes += ph.TotalInstr * ph.FlushesPerK / 1000
	}
	if flushes == 0 {
		t.Error("attack must issue CLFLUSHes")
	}
	for _, ph := range v.Phases {
		if ph.FlushesPerK != 0 {
			t.Error("victim must not flush")
		}
	}
	// Attack preserves the victim's phases around the exploit.
	if a.Phases[0].Name != v.Phases[0].Name ||
		a.Phases[len(a.Phases)-1].Name != v.Phases[len(v.Phases)-1].Name {
		t.Error("attack should wrap the victim program")
	}
}

func TestOSNoiseIsADaemonFriendlyLoop(t *testing.T) {
	k := testKernel(6)
	k.SpawnDaemon("noise", OSNoise(1))
	k.Spawn("main", Synthetic{TotalInstr: 10_000_000}.Script().Program())
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestSyntheticDefaults(t *testing.T) {
	s := Synthetic{TotalInstr: 1000}.Script()
	if s.Name != "synthetic" || len(s.Phases) != 1 {
		t.Error("defaults not applied")
	}
	ph := s.Phases[0]
	if ph.LoadsPerK == 0 || ph.Mem.Footprint == 0 || ph.BlockInstr == 0 {
		t.Error("zero defaults leaked")
	}
}

func TestSuiteCatalog(t *testing.T) {
	suite := Suite()
	if len(suite) != 6 {
		t.Fatalf("suite size %d", len(suite))
	}
	seen := map[string]bool{}
	for _, b := range suite {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark %s", b.Name)
		}
		seen[b.Name] = true
		if b.Family == "" {
			t.Errorf("%s: no family", b.Name)
		}
		s := b.Script()
		if s.TotalInstr() == 0 || s.Name != b.Name {
			t.Errorf("%s: bad script", b.Name)
		}
	}
}

func TestSuiteRegionsDisjoint(t *testing.T) {
	// Each member gets a private address region so characterization runs
	// (and any co-located use) never share lines.
	bases := map[uint64]string{}
	for _, b := range Suite() {
		base := b.Script().Phases[0].Mem.Base
		if prev, dup := bases[base]; dup {
			t.Errorf("%s and %s share region base %#x", b.Name, prev, base)
		}
		bases[base] = b.Name
	}
}

// phaseWalk is the per-phase reference the compiled stream replaced: each
// phase emits blockAt(remaining) until its budget is spent. It calls yield
// once per block, in emission order.
func phaseWalk(s Script, yield func(isa.Block)) {
	for _, ph := range s.Phases {
		for rem := ph.TotalInstr; rem > 0; {
			b := ph.blockAt(rem)
			yield(b)
			rem -= b.Instr
		}
	}
}

// checkMatchesWalk drives s.Program() through Next alone and requires
// exactly the reference walk's blocks, then an exit.
func checkMatchesWalk(t *testing.T, s Script) {
	t.Helper()
	sp := s.Program()
	n, bad := 0, false
	phaseWalk(s, func(want isa.Block) {
		if bad {
			return
		}
		if ex, ok := sp.Next(nil, nil).(kernel.OpExec); !ok || *ex.Block != want {
			t.Errorf("%s: block %d is %+v, the phase walk emits %+v", s.Name, n, ex.Block, want)
			bad = true
		}
		n++
	})
	if _, ok := sp.Next(nil, nil).(kernel.OpExit); !ok && !bad {
		t.Errorf("%s: program continues after the phase walk's %d blocks", s.Name, n)
	}
}

// TestCompiledStreamMatchesPhaseWalk: every script the package builds, and
// the phase shapes at the edges of the compiler's arithmetic, emit the same
// block sequence from the compiled stream as from the per-phase walk.
func TestCompiledStreamMatchesPhaseWalk(t *testing.T) {
	m, hb := NewMeltdown(), NewHeartbleed()
	scripts := []Script{
		NewTripleLoopMatmul().Script(),
		NewDgemmMatmul().Script(),
		NewLinpack(5000).Script(),
		m.VictimScript(), m.AttackScript(),
		hb.ServerScript(), hb.AttackScript(),
		NewServe().Script(),
		Synthetic{TotalInstr: 1_000_000}.Script(),
	}
	for _, img := range Images() {
		scripts = append(scripts, img.Script())
	}
	for _, b := range Suite() {
		scripts = append(scripts, b.Script())
	}
	mem := isa.MemPattern{Base: 0x1000, Footprint: 4096, Stride: 8}
	scripts = append(scripts,
		Script{Name: "empty"},
		Script{Name: "zero-budget", Phases: []Phase{{TotalInstr: 0, BlockInstr: 1000, Mem: mem}}},
		Script{Name: "default-block", Phases: []Phase{{TotalInstr: 250_000, LoadsPerK: 100, Mem: mem}}},
		Script{Name: "below-one-block", Phases: []Phase{{TotalInstr: 700, BlockInstr: 1000, StoresPerK: 30, Mem: mem}}},
		Script{Name: "exact-multiple", Phases: []Phase{{TotalInstr: 3000, BlockInstr: 1000, BranchesPerK: 50, Mem: mem}}},
		Script{Name: "mixed", Phases: []Phase{
			{TotalInstr: 0, BlockInstr: 1000, Mem: mem},
			{TotalInstr: 2500, BlockInstr: 1000, LoadsPerK: 7, Mem: mem},
			{TotalInstr: 0, Mem: mem},
			{TotalInstr: 999, BlockInstr: 1000, Mem: mem},
			{TotalInstr: 4000, BlockInstr: 1000, FlushesPerK: 3, Mem: mem},
		}},
	)
	for _, s := range scripts {
		checkMatchesWalk(t, s)
	}
}

// TestEmptyStreamFinishes: a script that emits no block still runs its
// prelude, fires the final hook, and exits.
func TestEmptyStreamFinishes(t *testing.T) {
	s := Script{Phases: []Phase{{Name: "idle", TotalInstr: 0, BlockInstr: 1000}}}
	sp := s.Program()
	mark := func(name string) kernel.Op { return kernel.OpSyscall{Name: name} }
	sp.Instrument([]kernel.Op{mark("init")}, 1000, func(*kernel.Kernel, *kernel.Process) []kernel.Op {
		return []kernel.Op{mark("hook")}
	})
	var got []string
	for i := 0; i < 4; i++ {
		switch op := sp.Next(nil, nil).(type) {
		case kernel.OpSyscall:
			got = append(got, op.Name)
		case kernel.OpExit:
			got = append(got, "exit")
		default:
			t.Fatalf("op %d: unexpected %T", i, op)
		}
	}
	if want := "init hook exit exit"; strings.Join(got, " ") != want {
		t.Errorf("ops %q, want %q", got, want)
	}
}

// TestHookCapOnBlockMultiple pins PeekRun's hook cap where it is tight:
// with HookEvery exactly k blocks, the hook must fire on block k, 2k, …
// whether the stream is stepped by Next alone or consumed greedily through
// PeekRun/ConsumeRun the way the kernel batches it.
func TestHookCapOnBlockMultiple(t *testing.T) {
	const k, blocks = 5, 17
	s := Script{Phases: []Phase{{
		TotalInstr: blocks * 1000, BlockInstr: 1000,
		Mem: isa.MemPattern{Base: 0x1000, Footprint: 4096, Stride: 8},
	}}}
	drive := func(greedy bool) []int {
		sp := s.Program()
		emitted := 0
		var fired []int
		sp.Instrument(nil, k*1000, func(*kernel.Kernel, *kernel.Process) []kernel.Op {
			fired = append(fired, emitted+1) // fires inside the Next that emits this block
			return nil
		})
		for {
			if _, exit := sp.Next(nil, nil).(kernel.OpExit); exit {
				return fired
			}
			emitted++
			if _, n := sp.PeekRun(); greedy && n > 0 {
				sp.ConsumeRun(n)
				emitted += int(n)
			}
		}
	}
	// Hooks at blocks 5, 10 and 15, then the final hook as the program
	// exits after its last block.
	want := []int{k, 2 * k, 3 * k, blocks + 1}
	for _, greedy := range []bool{false, true} {
		if got := drive(greedy); !reflect.DeepEqual(got, want) {
			t.Errorf("greedy=%v: hook fired at blocks %v, want %v", greedy, got, want)
		}
	}
}
