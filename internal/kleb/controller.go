package kleb

import (
	"fmt"
	"io"
	"strconv"

	"kleb/internal/fault"
	"kleb/internal/isa"
	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/monitor"
	"kleb/internal/workload"
)

// DefaultDrainInterval is how often the controller wakes to pull samples
// out of the kernel buffer. The paper's design leaves this to the
// scheduler's natural cadence; 100ms keeps the buffer comfortably ahead of
// a 100µs sampling rate with the default ring size.
const DefaultDrainInterval = 50 * ktime.Millisecond

// ReadMax bounds one drain; large enough to empty the default ring.
const ReadMax = DefaultBufferSamples

// DefaultLogPath is where the controller writes its CSV sample log unless
// Controller.LogPath overrides it.
const DefaultLogPath = "/var/log/kleb.csv"

// MaxRetries bounds consecutive retries of one transiently-failing ioctl
// before the controller gives up and aborts the run as degraded.
const MaxRetries = 5

// maxStatusFailures bounds consecutive KLEB_STATUS failures: status is the
// controller's only view of module liveness, so a module that cannot even
// report status is treated as gone after this many attempts.
const maxStatusFailures = 8

// maxFutileDrains bounds consecutive empty final drains while the module
// claims samples are still available — the guard against a starvation fault
// (or a module bug) turning the final-drain loop into an infinite poll.
const maxFutileDrains = 64

// DefaultPollDeadline is how long the controller tolerates a running module
// making no sampling progress before aborting; Controller.PollDeadline
// overrides it.
const DefaultPollDeadline = 10 * ktime.Second

// retryBackoff is the sleep before retry number attempt (1-based):
// exponential from 1ms, capped at 32ms so retries stay well inside one
// drain interval.
func retryBackoff(attempt int) ktime.Duration {
	if attempt > 5 {
		attempt = 5
	}
	return ktime.Millisecond << uint(attempt)
}

// Controller is the user-space half of K-LEB (Fig 1's "Controller
// Process"): it configures the module over ioctl, starts collection, wakes
// periodically to drain the kernel buffer, logs the samples, and stops the
// module when the monitored lineage has exited.
//
// The controller is hardened against a faulty module: transient ioctl
// failures are retried with exponential backoff (bounded by MaxRetries),
// permanent failures abort the run with Err set, a module making no
// sampling progress trips PollDeadline, and log-write failures are recorded
// without being allowed to kill collection. Any of these marks the run
// degraded — finished with partial but trustworthy data.
type Controller struct {
	Cfg           ModuleConfig
	DrainInterval ktime.Duration

	// PollDeadline bounds how long the controller waits for sampling
	// progress while the module reports itself running (0 =
	// DefaultPollDeadline).
	PollDeadline ktime.Duration

	// LogPath overrides where the CSV log lands in the simulated filesystem
	// ("" = DefaultLogPath).
	LogPath string
	// LogWriter, if set, additionally receives every CSV chunk as it is
	// written — the injectable sink that frees callers from fishing the log
	// back out of the simulated FS.
	LogWriter io.Writer

	// Samples accumulates everything drained, in capture order.
	Samples []monitor.Sample
	// Err records the fatal error that aborted the run (permanent ioctl
	// failure, retry exhaustion, poll deadline); nil for a clean run.
	Err error
	// Retries counts transient-failure retries across all ops.
	Retries uint64
	// WriteFailures counts log writes that failed (FS or LogWriter); the
	// samples stay in Samples, only the log copy is incomplete.
	WriteFailures uint64
	// WriteErr is the first write failure (nil if none).
	WriteErr error

	state       int
	pending     []monitor.Sample // drained but not yet logged
	logBuf      []byte           // writeOp's CSV rows, reused across writes
	wroteHeader bool
	done        bool
	finishing   bool // module reported Done; draining the tail
	degraded    bool
	attempts    int // consecutive transient failures of the current op
	statusCount int // consecutive KLEB_STATUS failures
	futile      int // consecutive empty final drains
	lastSeen    uint64
	lastSeenAt  ktime.Time
}

// Controller states. The *Retry states exist so a backoff sleep can resume
// by re-issuing the failed ioctl without re-reading the stale SyscallResult
// the sleep left behind.
const (
	ctlConfigure = iota
	ctlStart
	ctlStartRetry
	ctlSleep
	ctlDrain
	ctlLog
	ctlWrite
	ctlCheck
	ctlFinal
	ctlStop
	ctlStopRetry
	ctlDone
)

var _ kernel.Program = (*Controller)(nil)

// NewController builds a controller for cfg.
func NewController(cfg ModuleConfig) *Controller {
	return &Controller{Cfg: cfg, DrainInterval: DefaultDrainInterval}
}

// Degraded reports whether the run finished with partial data (abort or
// write failures).
func (c *Controller) Degraded() bool { return c.degraded }

// FaultError returns the first unrecoverable fault of the run: the abort
// error if the controller aborted, else the first write failure, else nil.
func (c *Controller) FaultError() error {
	if c.Err != nil {
		return c.Err
	}
	return c.WriteErr
}

func (c *Controller) pollDeadline() ktime.Duration {
	if c.PollDeadline > 0 {
		return c.PollDeadline
	}
	return DefaultPollDeadline
}

// markDegraded flags the run as partial-data, emitting the telemetry event
// once.
func (c *Controller) markDegraded(k *kernel.Kernel, reason string) {
	if c.degraded {
		return
	}
	c.degraded = true
	k.Telemetry().RunDegraded(k.Now(), reason)
}

// abort ends the run: record the error, mark it degraded and exit non-zero.
func (c *Controller) abort(k *kernel.Kernel, err error) kernel.Op {
	if c.Err == nil {
		c.Err = err
	}
	c.markDegraded(k, "abort")
	c.state = ctlDone
	return kernel.OpExit{Code: 1}
}

// retryOrAbort handles an ioctl failure: transient errors are retried with
// backoff (resuming in resumeState, which re-issues the op); permanent
// errors and exhausted retries abort.
func (c *Controller) retryOrAbort(k *kernel.Kernel, op string, err error, resumeState int) kernel.Op {
	if !fault.IsTransient(err) || c.attempts >= MaxRetries {
		return c.abort(k, fmt.Errorf("%s: %w", op, err))
	}
	c.attempts++
	c.Retries++
	k.Telemetry().CtlRetry(k.Now(), op, uint64(c.attempts))
	c.state = resumeState
	return kernel.OpSleep{D: retryBackoff(c.attempts)}
}

// noteWriteFailure records a failed log write without aborting: sample data
// is already safe in Samples, only the log copy is degraded.
func (c *Controller) noteWriteFailure(k *kernel.Kernel, err error) {
	c.WriteFailures++
	if c.WriteErr == nil {
		c.WriteErr = err
	}
	c.markDegraded(k, "log-write")
}

// Next implements kernel.Program as the controller's event loop.
func (c *Controller) Next(k *kernel.Kernel, p *kernel.Process) kernel.Op {
	switch c.state {
	case ctlConfigure:
		c.state = ctlStart
		return ioctlOp("KLEB_CONFIG", CmdConfig, c.Cfg)
	case ctlStart:
		if err, bad := p.SyscallResult.(error); bad {
			return c.retryOrAbort(k, "KLEB_CONFIG", err, ctlConfigure)
		}
		c.attempts = 0
		c.state = ctlSleep
		return ioctlOp("KLEB_START", CmdStart, nil)
	case ctlStartRetry:
		c.state = ctlSleep
		return ioctlOp("KLEB_START", CmdStart, nil)
	case ctlSleep:
		if err, bad := p.SyscallResult.(error); bad {
			return c.retryOrAbort(k, "KLEB_START", err, ctlStartRetry)
		}
		c.attempts = 0
		c.lastSeenAt = k.Now()
		c.state = ctlDrain
		return kernel.OpSleep{D: c.DrainInterval}
	case ctlDrain:
		c.state = ctlLog
		return ioctlOp("KLEB_READ", CmdRead, ReadRequest{Max: ReadMax})
	case ctlLog:
		if err, bad := p.SyscallResult.(error); bad {
			// A failed read is an error, not an empty buffer: retry it
			// rather than silently dropping the drain.
			return c.retryOrAbort(k, "KLEB_READ", err, ctlDrain)
		}
		c.attempts = 0
		if got, ok := p.SyscallResult.([]monitor.Sample); ok && len(got) > 0 {
			c.pending = got
			c.Samples = append(c.Samples, got...)
			c.lastSeenAt = k.Now()
			c.futile = 0
			c.state = ctlWrite
			return c.logOp(k, len(c.pending))
		}
		c.pending = nil
		if c.finishing {
			// Final-drain loop: the module says samples remain but the
			// read yielded none (drain starvation). Bound the loop so a
			// stuck module cannot poll us forever.
			c.futile++
			if c.futile >= maxFutileDrains {
				return c.abort(k, fmt.Errorf(
					"kleb: module reports samples available but %d consecutive drains returned none", c.futile))
			}
		}
		c.state = ctlCheck
		return c.Next(k, p)
	case ctlWrite:
		c.state = ctlCheck
		return c.writeOp(len(c.pending))
	case ctlCheck:
		c.state = ctlFinal
		return ioctlOp("KLEB_STATUS", CmdStatus, nil)
	case ctlFinal:
		if err, bad := p.SyscallResult.(error); bad {
			// Status is the liveness probe; a module that cannot answer it
			// after maxStatusFailures attempts is treated as dead.
			c.statusCount++
			if !fault.IsTransient(err) || c.statusCount >= maxStatusFailures {
				return c.abort(k, fmt.Errorf("KLEB_STATUS: %w", err))
			}
			c.Retries++
			k.Telemetry().CtlRetry(k.Now(), "KLEB_STATUS", uint64(c.statusCount))
			c.state = ctlCheck
			return kernel.OpSleep{D: retryBackoff(c.statusCount)}
		}
		st, ok := p.SyscallResult.(Status)
		if !ok {
			// The old controller zero-valued this and polled a dead module
			// forever; an unexpected reply type is a fatal protocol error.
			return c.abort(k, fmt.Errorf("KLEB_STATUS returned %T, want kleb.Status", p.SyscallResult))
		}
		c.statusCount = 0
		if st.Done {
			c.finishing = true
			if st.Available > 0 {
				// Final drain until the buffer is empty.
				c.state = ctlLog
				return ioctlOp("KLEB_READ", CmdRead, ReadRequest{Max: ReadMax})
			}
			c.state = ctlStop
			return ioctlOp("KLEB_STOP", CmdStop, nil)
		}
		if st.Samples > c.lastSeen {
			c.lastSeen = st.Samples
			c.lastSeenAt = k.Now()
		} else if k.Now().Sub(c.lastSeenAt) > c.pollDeadline() {
			return c.abort(k, fmt.Errorf(
				"kleb: module running but no sampling progress for %v", c.pollDeadline()))
		}
		c.state = ctlDrain
		return kernel.OpSleep{D: c.DrainInterval}
	case ctlStop:
		if err, bad := p.SyscallResult.(error); bad {
			return c.retryOrAbort(k, "KLEB_STOP", err, ctlStopRetry)
		}
		c.done = true
		c.state = ctlDone
		return kernel.OpExit{}
	case ctlStopRetry:
		c.state = ctlStop
		return ioctlOp("KLEB_STOP", CmdStop, nil)
	}
	return kernel.OpExit{}
}

// logOp models writing n samples to the log file: a short user-space
// formatting stretch plus a write syscall whose kernel side (page-cache
// copy, VFS) dominates the cost.
func (c *Controller) logOp(k *kernel.Kernel, n int) kernel.Op {
	return kernel.OpExec{Block: isa.Block{
		Instr:    20_000 + uint64(n)*1_500,
		Loads:    6_000 + uint64(n)*400,
		Stores:   3_000 + uint64(n)*300,
		Branches: 2_000 + uint64(n)*120,
		Mem: isa.MemPattern{
			Base:      workload.ToolRegion(),
			Footprint: 256 << 10,
			Stride:    8,
		},
		Priv: isa.User,
	}}
}

// writeOp is the log write syscall (issued after the format block): the
// pending samples are rendered as CSV rows and appended to the log file in
// the kernel's filesystem, paying the journal/flush cost plus the VFS
// per-byte copy price. Write failures are recorded, never fatal: the
// drained samples are already safe in c.Samples.
//
//klebvet:artifact
func (c *Controller) writeOp(n int) kernel.Op {
	return kernel.OpSyscall{Name: "write", Fn: func(k *kernel.Kernel, p *kernel.Process) any {
		k.ChargeKernel(350 * ktime.Microsecond) // journal + page-cache flush
		buf := c.logBuf[:0]
		if !c.wroteHeader {
			c.wroteHeader = true
			buf = append(buf, "time_us"...)
			for _, ev := range c.Cfg.Events {
				buf = append(buf, ',')
				buf = append(buf, ev.String()...)
			}
			buf = append(buf, '\n')
		}
		for _, s := range c.pending {
			buf = appendMicros(buf, s.Time)
			for i := range c.Cfg.Events {
				var v uint64
				if i < len(s.Deltas) {
					v = s.Deltas[i]
				}
				buf = append(buf, ',')
				buf = strconv.AppendUint(buf, v, 10)
			}
			buf = append(buf, '\n')
		}
		c.logBuf = buf
		if err := k.FS().Append(c.logPath(), buf); err != nil {
			c.noteWriteFailure(k, err)
		}
		if c.LogWriter != nil {
			if _, err := c.LogWriter.Write(buf); err != nil {
				c.noteWriteFailure(k, err)
			}
		}
		return nil
	}}
}

// appendMicros appends t as microseconds with one decimal, byte for byte
// what strconv.AppendFloat(buf, float64(t)/1000, 'f', 1, 64) appends, but in
// integer arithmetic: AppendFloat with a fixed precision always takes
// strconv's arbitrary-precision path. The integer rounding is exact below
// 2^50 ns, where the double's error is under 1/8000 µs, because a time
// whose remainder mod 100 ns is not 50 lies at least 1 ns from a rounding
// boundary. An exact tie rounds by its binary value, so ties and larger
// times go through strconv.
func appendMicros(buf []byte, t ktime.Time) []byte {
	ns := uint64(t)
	rem := ns % 100
	if rem == 50 || ns >= 1<<50 {
		return strconv.AppendFloat(buf, float64(ns)/1000, 'f', 1, 64)
	}
	tenths := ns / 100
	if rem > 50 {
		tenths++
	}
	buf = strconv.AppendUint(buf, tenths/10, 10)
	return append(buf, '.', byte('0'+tenths%10))
}

// logPath returns the effective CSV log location.
func (c *Controller) logPath() string {
	if c.LogPath != "" {
		return c.LogPath
	}
	return DefaultLogPath
}

// ioctlOp wraps a module ioctl in a syscall op.
func ioctlOp(name string, cmd uint32, arg any) kernel.Op {
	return kernel.OpSyscall{Name: name, Fn: func(k *kernel.Kernel, p *kernel.Process) any {
		res, err := k.Ioctl(p, DeviceName, cmd, arg)
		if err != nil {
			return err
		}
		return res
	}}
}
