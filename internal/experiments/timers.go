package experiments

import (
	"fmt"
	"io"

	"kleb/internal/isa"
	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/session"
	"kleb/internal/trace"
)

// busyBlock keeps the core busy so timer interrupts have something to
// preempt, as in real sampling.
func busyBlock() *isa.Block {
	return &isa.Block{
		Instr: 100_000, Loads: 25_000, Stores: 8_000, Branches: 10_000,
		Mem:  isa.MemPattern{Base: 0x9_0000_0000, Footprint: 64 << 10, Stride: 8},
		Priv: isa.User,
	}
}

// TimerRow reports the achieved period for one requested period on one
// timer facility.
type TimerRow struct {
	Facility    string // "user-timer" or "hrtimer"
	Requested   ktime.Duration
	AchievedAvg ktime.Duration
	JitterStd   ktime.Duration // standard deviation of inter-fire gaps
}

// TimerResult is the §II-C/§III timer-granularity study: user-space timers
// cannot beat the 10ms jiffy; the in-kernel HRTimer holds 100µs with
// microsecond jitter (and the jitter fraction grows as periods shrink).
type TimerResult struct {
	Rows []TimerRow
}

// RunTimers measures both facilities across a period sweep, fanning the
// independent measurements over the scheduler's pool.
func RunTimers(p Params) (*TimerResult, error) {
	periods := []ktime.Duration{
		100 * ktime.Microsecond,
		ktime.Millisecond,
		10 * ktime.Millisecond,
		50 * ktime.Millisecond,
	}
	type job struct {
		facility string
		period   ktime.Duration
	}
	var jobs []job
	for _, period := range periods {
		jobs = append(jobs, job{"user-timer", period})
	}
	for _, period := range periods {
		jobs = append(jobs, job{"hrtimer", period})
	}
	rows := make([]TimerRow, len(jobs))
	errs := make([]error, len(jobs))
	session.Scheduler{Workers: p.Workers}.ForEach(len(jobs), func(i int) {
		switch jobs[i].facility {
		case "user-timer":
			rows[i], errs[i] = measureUserTimer(p.Seed, jobs[i].period)
		default:
			rows[i], errs[i] = measureHRTimer(p.Seed, jobs[i].period)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &TimerResult{Rows: rows}, nil
}

// measureUserTimer runs a process on a user-space interval timer
// (setitimer-style absolute arming, the best user space can do without a
// kernel module) and measures the achieved gaps: anything below the jiffy
// is silently degraded to 10ms.
func measureUserTimer(seed uint64, period ktime.Duration) (TimerRow, error) {
	const iterations = 60
	var fires []ktime.Time
	_, err := session.Run(session.Spec{
		Profile:    machine.Nehalem(),
		Seed:       seed,
		TargetName: "timer-loop",
		NewTarget: func() kernel.Program {
			n := 0
			return kernel.ProgramFunc(func(k *kernel.Kernel, p *kernel.Process) kernel.Op {
				if n > 0 {
					fires = append(fires, k.Now())
				}
				if n >= iterations {
					return kernel.OpExit{}
				}
				n++
				next := (uint64(k.Now())/uint64(period) + 1) * uint64(period)
				return kernel.OpSleep{Until: ktime.Time(next)}
			})
		},
	})
	if err != nil {
		return TimerRow{}, err
	}
	avg, std := gapStats(fires)
	return TimerRow{Facility: "user-timer", Requested: period, AchievedAvg: avg, JitterStd: std}, nil
}

// measureHRTimer arms an in-kernel periodic HRTimer while a busy process
// keeps the CPU non-idle, and measures handler-invocation gaps.
func measureHRTimer(seed uint64, period ktime.Duration) (TimerRow, error) {
	const iterations = 60
	var fires []ktime.Time
	done := false
	_, err := session.Run(session.Spec{
		Profile:    machine.Nehalem(),
		Seed:       seed,
		TargetName: "busy",
		OnBoot: func(m *machine.Machine) {
			m.Kernel().StartHRTimer(period, period, func(k *kernel.Kernel, t *kernel.HRTimer) bool {
				fires = append(fires, k.Now())
				if len(fires) >= iterations {
					done = true
					return false
				}
				return true
			})
		},
		NewTarget: func() kernel.Program {
			return kernel.ProgramFunc(func(k *kernel.Kernel, p *kernel.Process) kernel.Op {
				if done {
					return kernel.OpExit{}
				}
				return kernel.OpExec{Block: busyBlock()}
			})
		},
	})
	if err != nil {
		return TimerRow{}, err
	}
	avg, std := gapStats(fires)
	return TimerRow{Facility: "hrtimer", Requested: period, AchievedAvg: avg, JitterStd: std}, nil
}

func gapStats(fires []ktime.Time) (avg, std ktime.Duration) {
	if len(fires) < 2 {
		return 0, 0
	}
	gaps := make([]float64, 0, len(fires)-1)
	for i := 1; i < len(fires); i++ {
		gaps = append(gaps, float64(fires[i].Sub(fires[i-1])))
	}
	s := trace.Summarize(gaps)
	return ktime.Duration(s.Mean), ktime.Duration(s.Stddev)
}

// Check tests §II-C's and §III's claims: user timers cannot beat the 10ms
// jiffy but hold it, and the HRTimer sustains 100µs with microsecond-class
// jitter — the paper's 100× claim.
func (r *TimerResult) Check() error {
	var c claims
	find := func(facility string, period ktime.Duration) TimerRow {
		for _, row := range r.Rows {
			if row.Facility == facility && row.Requested == period {
				return row
			}
		}
		c.failf("row %s/%v missing", facility, period)
		return TimerRow{}
	}
	// User timers cannot beat the 10ms jiffy (§II-C).
	for _, period := range []ktime.Duration{100 * ktime.Microsecond, ktime.Millisecond} {
		if row := find("user-timer", period); row.AchievedAvg < 9*ktime.Millisecond {
			c.failf("user timer honored %v (achieved %v); the jiffy floor is gone", period, row.AchievedAvg)
		}
	}
	// At 10ms the user timer is fine.
	tenMs := find("user-timer", 10*ktime.Millisecond)
	if tenMs.AchievedAvg < 9*ktime.Millisecond || tenMs.AchievedAvg > 11*ktime.Millisecond {
		c.failf("user timer at its native rate: %v", tenMs.AchievedAvg)
	}
	// The HRTimer sustains 100µs.
	hr := find("hrtimer", 100*ktime.Microsecond)
	if hr.AchievedAvg < 90*ktime.Microsecond || hr.AchievedAvg > 120*ktime.Microsecond {
		c.failf("hrtimer at 100µs achieved %v", hr.AchievedAvg)
	}
	// Jitter is microsecond-class, i.e. nonzero but well under the period.
	if hr.JitterStd == 0 || hr.JitterStd > 20*ktime.Microsecond {
		c.failf("hrtimer jitter %v", hr.JitterStd)
	}
	return c.err("timers")
}

// Render writes the timer study.
func (r *TimerResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Timer granularity — requested vs achieved period (jiffy=10ms, HRTimer=ns-class)")
	fmt.Fprintf(w, "%-12s %12s %12s %12s\n", "facility", "requested", "achieved", "jitter-std")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %12v %12v %12v\n", row.Facility, row.Requested, row.AchievedAvg, row.JitterStd)
	}
}
