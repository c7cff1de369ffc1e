// Package session is the canonical run layer of the simulator (DESIGN.md
// S23): it owns the machine-boot → tool-attach → workload-run →
// sample-drain lifecycle that every run path shares. A Spec fully describes
// one run; Session executes its lifecycle stage by stage; Scheduler fans a
// batch of Specs out over a worker pool with deterministic results. The
// public facade, all experiment runners and both binaries run through this
// package — none of them boots machines or attaches tools directly.
package session

import (
	"fmt"

	"kleb/internal/fault"
	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/monitor"
	"kleb/internal/telemetry"
)

// Spec fully describes one run: which machine, which workload, which tool,
// which monitoring configuration, and the seed that makes it reproducible.
type Spec struct {
	// Profile is the machine to boot.
	Profile machine.Profile
	// Seed drives all simulation noise; identical seeds replay identically.
	Seed uint64
	// TargetName names the monitored process (default "target").
	TargetName string
	// NewTarget creates the target's program. It is invoked once per run,
	// inside the worker executing the run.
	NewTarget func() kernel.Program
	// NewTool creates the monitor under test; nil runs an unmonitored
	// baseline. Batches must build a fresh tool per run — tools are
	// stateful — which is why the Spec carries a factory, not an instance.
	NewTool func() (monitor.Tool, error)
	// Config is the monitoring request (ignored when NewTool is nil).
	Config monitor.Config
	// Limit caps simulated time as a runaway guard (0 = none).
	Limit ktime.Duration
	// OnBoot, when set, runs right after the machine boots and before any
	// process is spawned — the hook for attaching debug instrumentation
	// (syscall tracing, state dumps), arming bare kernel timers or
	// spawning background daemons such as workload.OSNoise.
	OnBoot func(*machine.Machine)
	// Telemetry, when set, receives the run's trace events and metrics (see
	// internal/telemetry). The sink is attached to the kernel at boot, before
	// OnBoot, so every event of the run is captured. It must be private to
	// this run: a Sink is single-owner and never synchronized.
	Telemetry *telemetry.Sink
	// Faults, when set, is the run's fault-injection plan (see
	// internal/fault). Like Telemetry it is installed at boot and must be
	// private to this run: a Plan carries mutable decision state.
	Faults *fault.Plan
}

// Use wraps an existing tool instance as a NewTool factory, for single-run
// specs whose caller wants to inspect the instance afterwards. Never share
// one instance across a batch: tools are stateful.
func Use(t monitor.Tool) func() (monitor.Tool, error) {
	return func() (monitor.Tool, error) { return t, nil }
}

// Result is the outcome of one run.
type Result struct {
	// Tool is the instantiated tool (nil for baselines), exposed so callers
	// can read tool-specific state such as effective periods.
	Tool monitor.Tool
	// Result is the tool's collected data (zero value for baselines).
	Result monitor.Result
	// Elapsed is the target's wall-clock lifetime.
	Elapsed ktime.Duration
	// TargetUser/TargetKern are the target's CPU time split.
	TargetUser ktime.Duration
	TargetKern ktime.Duration
	// Machine is the booted machine, for post-run inspection. Drain has
	// released its cache storage (see Session.Drain): the kernel, its
	// processes, clock, filesystem and modules stay inspectable, and the
	// caches' Stats, Gen and Config stay readable, but nothing may run on
	// the machine or access its caches again.
	Machine *machine.Machine
	// Target is the monitored process.
	Target *kernel.Process
}

// Session drives one Spec through its lifecycle. The stages are exposed
// individually (Boot, Attach, Drive, Drain) for callers that need to
// interleave their own work; Run chains all four.
type Session struct {
	spec    Spec
	machine *machine.Machine
	tool    monitor.Tool
	target  *kernel.Process

	// lastStage is the virtual instant the previous lifecycle stage ended,
	// for telemetry stage spans.
	lastStage ktime.Time
}

// stage emits the completion of one lifecycle stage to the spec's sink.
func (s *Session) stage(name string) {
	if s.spec.Telemetry == nil {
		return
	}
	now := s.machine.Kernel().Now()
	s.spec.Telemetry.Stage(now, name, now.Sub(s.lastStage))
	s.lastStage = now
}

// New prepares a session for spec without booting anything yet.
func New(spec Spec) *Session { return &Session{spec: spec} }

// Boot validates the spec, boots the machine and runs the OnBoot hook. It
// is idempotent once successful.
func (s *Session) Boot() (*machine.Machine, error) {
	if s.machine != nil {
		return s.machine, nil
	}
	if s.spec.NewTarget == nil {
		return nil, fmt.Errorf("session: Spec.NewTarget is nil")
	}
	if s.spec.NewTool != nil {
		if err := s.spec.Config.Validate(); err != nil {
			return nil, err
		}
	}
	m := machine.Boot(s.spec.Profile, s.spec.Seed)
	if s.spec.Telemetry != nil {
		m.Kernel().SetTelemetry(s.spec.Telemetry)
	}
	if s.spec.Faults != nil {
		m.Kernel().SetFaults(s.spec.Faults)
	}
	if s.spec.OnBoot != nil {
		s.spec.OnBoot(m)
	}
	s.machine = m
	s.stage("boot")
	return m, nil
}

// Attach creates the target (stopped), instantiates and attaches the tool,
// and resumes the target according to the tool's launch convention.
func (s *Session) Attach() error {
	if _, err := s.Boot(); err != nil {
		return err
	}
	if s.target != nil {
		return nil
	}
	name := s.spec.TargetName
	if name == "" {
		name = "target"
	}
	var tool monitor.Tool
	if s.spec.NewTool != nil {
		t, err := s.spec.NewTool()
		if err != nil {
			return err
		}
		tool = t
	}
	if s.spec.NewTarget == nil {
		return fmt.Errorf("session: spec for target %q has no NewTarget factory", name)
	}
	target, err := StartTarget(s.machine, name, s.spec.NewTarget(), tool, s.spec.Config)
	if err != nil {
		return err
	}
	s.tool = tool
	s.target = target
	s.stage("attach")
	return nil
}

// Drive runs the kernel until all processes exit (or Limit is reached) and
// verifies the target completed.
func (s *Session) Drive() error {
	if err := s.Attach(); err != nil {
		return err
	}
	if err := s.machine.Kernel().Run(s.spec.Limit); err != nil {
		return fmt.Errorf("session: run under %s: %w", toolName(s.tool), err)
	}
	if !s.target.Exited() {
		return fmt.Errorf("session: target %q did not exit (state %v)", s.target.Name(), s.target.State())
	}
	s.stage("drive")
	return nil
}

// Drain collects the tool's results, packages the run outcome and ends the
// run's simulated storage: once the tool is collected, the machine's cache
// arrays go back to their geometry's pool (machine.Machine.Release), so the
// next boot of that profile reuses them instead of allocating ~1 MB of
// fresh arrays while this Result is still referenced. Every run path ends
// here, including callers that drive the stages one by one.
func (s *Session) Drain() *Result {
	res := &Result{
		Tool:       s.tool,
		Elapsed:    s.target.Runtime(),
		TargetUser: s.target.UserTime(),
		TargetKern: s.target.KernelTime(),
		Machine:    s.machine,
		Target:     s.target,
	}
	if s.tool != nil {
		res.Result = s.tool.Collect()
	}
	s.machine.Release()
	s.stage("drain")
	return res
}

// Run executes the whole lifecycle: boot, attach, drive, drain.
//
//klebvet:artifact
func (s *Session) Run() (*Result, error) {
	if err := s.Drive(); err != nil {
		return nil, err
	}
	return s.Drain(), nil
}

// Run executes one Spec start to finish.
func Run(spec Spec) (*Result, error) { return New(spec).Run() }

// StartTarget spawns prog stopped under name on m, attaches tool to it
// (when tool is non-nil) and resumes the target unless the tool's launch
// convention has the tool resume it itself. This is the single place the
// `tool ./program` enable-on-exec pattern lives; cluster experiments reuse
// it to arm monitors on individual cores.
func StartTarget(m *machine.Machine, name string, prog kernel.Program, tool monitor.Tool, cfg monitor.Config) (*kernel.Process, error) {
	// The target is created stopped so the tool can arm itself before the
	// target's first instruction, then resumed behind any tool processes
	// already in the run queue.
	target := m.Kernel().SpawnStopped(name, prog)
	if tool != nil {
		// Raw encodings resolve against the booted machine's event table —
		// this is the one place a request by architectural encoding becomes a
		// request by event class, so every tool below sees a uniform config.
		resolved, err := cfg.ResolveRaw(m.Profile().Events)
		if err != nil {
			return nil, fmt.Errorf("session: attach %s: %w", tool.Name(), err)
		}
		if err := tool.Attach(m, target, prog, resolved); err != nil {
			return nil, fmt.Errorf("session: attach %s: %w", tool.Name(), err)
		}
	}
	if tr, ok := tool.(monitor.TargetResumer); tool == nil || !ok || !tr.ResumesTarget() {
		m.Kernel().Resume(target)
	}
	return target, nil
}

func toolName(t monitor.Tool) string {
	if t == nil {
		return "baseline"
	}
	return t.Name()
}
