// Command kleb is the user-facing controller CLI: run a workload on a
// simulated machine under a monitoring tool and write the collected
// hardware event time series as CSV.
//
// Examples:
//
//	kleb -workload linpack -events ARITH.MUL,MEM_INST_RETIRED.LOADS,MEM_INST_RETIRED.STORES -period 10ms
//	kleb -workload meltdown-attack -period 100us -events LLC_REFERENCES,LLC_MISSES,INST_RETIRED
//	kleb -workload docker:nginx -events LLC_MISSES,INST_RETIRED -baseline
//	kleb -events INST_RETIRED,r412e,UNC_M_CAS_COUNT.RD   # raw perf-style encodings mix in
//	kleb -machine cascadelake events                     # print the machine's event table
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"kleb"
	"kleb/internal/prof"
)

// stopProfiles flushes any active -cpuprofile / -memprofile capture; fatal
// exits call it so profiles survive error paths too.
var stopProfiles = func() error { return nil }

func main() {
	var (
		workloadName = flag.String("workload", "quickstart", "workload: linpack[:N] | matmul | dgemm | docker:IMAGE | meltdown-victim | meltdown-attack | serve | quickstart")
		eventsFlag   = flag.String("events", "INST_RETIRED,LLC_MISSES,MEM_INST_RETIRED.LOADS,MEM_INST_RETIRED.STORES", "comma-separated event list (names or raw rUUEE encodings)")
		periodFlag   = flag.Duration("period", 10*time.Millisecond, "sampling period (K-LEB sustains 100µs)")
		toolFlag     = flag.String("tool", "kleb", "tool: kleb | perf-stat | perf-record | papi | limit")
		machineFlag  = flag.String("machine", "nehalem", "machine: nehalem | cascadelake | limit-legacy")
		seedFlag     = flag.Uint64("seed", 1, "simulation seed (equal seeds replay identically)")
		baseline     = flag.Bool("baseline", false, "also run unmonitored and report overhead")
		workersFlag  = flag.Int("workers", 0, "scheduler pool for multi-run calls like -baseline (0 = GOMAXPROCS)")
		kernelToo    = flag.Bool("kernel", false, "count kernel-mode execution too")
		outFlag      = flag.String("o", "", "write sample CSV to this file (default: summary only)")
		straceFlag   = flag.Bool("strace", false, "trace every simulated syscall to stderr")
		psFlag       = flag.Bool("ps", false, "dump the simulated kernel's final state to stderr")
		traceFlag    = flag.String("trace", "", "write the run's Chrome trace-event JSON here (open in Perfetto)")
		metricsFlag  = flag.String("metrics", "", "write the run's metrics in Prometheus text format here")
		cpuProfile   = flag.String("cpuprofile", "", "write a host CPU profile (pprof) to this file")
		memProfile   = flag.String("memprofile", "", "write a host heap profile (pprof) to this file on exit")
	)
	flag.Parse()

	// `kleb events` prints the selected machine's architectural event table
	// and exits; all monitoring flags except -machine are ignored.
	if flag.Arg(0) == "events" {
		if err := kleb.WriteEventTable(os.Stdout, kleb.MachineKind(*machineFlag)); err != nil {
			fatal(err)
		}
		return
	}

	stop, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "kleb: profile:", err)
		}
	}()

	w, err := resolveWorkload(*workloadName, *seedFlag)
	if err != nil {
		fatal(err)
	}
	var events []kleb.Event
	var rawEvents []kleb.Encoding
	for _, name := range strings.Split(*eventsFlag, ",") {
		name = strings.TrimSpace(name)
		if ev, ok := kleb.EventByName(name); ok {
			events = append(events, ev)
			continue
		}
		// Not a known mnemonic: try perf's raw rUUEE syntax before giving up.
		if enc, err := kleb.ParseRawEvent(name); err == nil {
			rawEvents = append(rawEvents, enc)
			continue
		}
		fatal(fmt.Errorf("unknown event %q (names: `kleb events`; raw syntax: rUUEE)", name))
	}

	opts := kleb.CollectOptions{
		Machine:       kleb.MachineKind(*machineFlag),
		Seed:          *seedFlag,
		Workload:      w,
		Events:        events,
		RawEvents:     rawEvents,
		Period:        kleb.Duration(periodFlag.Nanoseconds()),
		Tool:          kleb.ToolKind(*toolFlag),
		Baseline:      *baseline,
		IncludeKernel: *kernelToo,
		Workers:       *workersFlag,
	}
	if *straceFlag {
		opts.Strace = os.Stderr
	}
	if *psFlag {
		opts.DumpState = os.Stderr
	}
	var traceFile, metricsFile *os.File
	if *traceFlag != "" {
		f, err := os.Create(*traceFlag)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		traceFile = f
		opts.Trace = f
	}
	if *metricsFlag != "" {
		f, err := os.Create(*metricsFlag)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		metricsFile = f
		opts.Metrics = f
	}
	report, err := kleb.Collect(opts)
	if err != nil {
		fatal(err)
	}
	if traceFile != nil {
		fmt.Printf("wrote trace to %s (load in https://ui.perfetto.dev)\n", *traceFlag)
	}
	if metricsFile != nil {
		fmt.Printf("wrote metrics to %s\n", *metricsFlag)
	}

	fmt.Printf("workload  %s on %s under %s\n", w.Name(), *machineFlag, *toolFlag)
	fmt.Printf("elapsed   %v (%d samples at %v)\n", report.Elapsed, len(report.Samples), *periodFlag)
	if report.GFLOPS > 0 {
		fmt.Printf("rate      %.2f GFLOPS\n", report.GFLOPS)
	}
	if *baseline {
		fmt.Printf("baseline  %v  -> overhead %.2f%%\n", report.BaselineElapsed, report.OverheadPct)
	}
	if report.DroppedSamples > 0 {
		fmt.Printf("dropped   %d sampling periods (buffer-full safety stop)\n", report.DroppedSamples)
	}
	fmt.Println("totals:")
	for _, ev := range report.Events {
		suffix := ""
		if report.Estimated {
			suffix = " (estimated)"
			if s := report.Scale[ev]; s > 1 {
				suffix = fmt.Sprintf(" (estimated, scaled x%.2f)", s)
			}
		}
		fmt.Printf("  %-28s %15d%s\n", ev, report.Totals[ev], suffix)
	}
	if len(report.Samples) > 1 {
		fmt.Println("series:")
		for _, ev := range report.Events {
			fmt.Printf("  %-28s |%s|\n", ev, report.Sparkline(ev, 64))
		}
	}
	if *outFlag != "" {
		f, err := os.Create(*outFlag)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := report.WriteCSV(f); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d samples to %s\n", len(report.Samples), *outFlag)
	}
}

func resolveWorkload(name string, seed uint64) (kleb.Workload, error) {
	switch {
	case name == "quickstart":
		return kleb.Synthetic(500_000_000, 1<<20, 0.02), nil
	case name == "linpack":
		return kleb.Linpack(0), nil
	case strings.HasPrefix(name, "linpack:"):
		var n uint64
		if _, err := fmt.Sscanf(name, "linpack:%d", &n); err != nil {
			return kleb.Workload{}, fmt.Errorf("bad linpack size in %q", name)
		}
		return kleb.Linpack(n), nil
	case name == "matmul":
		return kleb.TripleLoopMatmul(), nil
	case name == "dgemm":
		return kleb.DgemmMatmul(), nil
	case strings.HasPrefix(name, "docker:"):
		return kleb.Container(strings.TrimPrefix(name, "docker:"))
	case name == "meltdown-victim":
		return kleb.Meltdown().Victim(), nil
	case name == "meltdown-attack":
		return kleb.Meltdown().Attack(), nil
	case name == "serve":
		return kleb.Serve(seed), nil
	}
	return kleb.Workload{}, fmt.Errorf("unknown workload %q (images: %s)",
		name, strings.Join(kleb.ContainerImages(), ", "))
}

func fatal(err error) {
	_ = stopProfiles() // best-effort flush on the way out
	fmt.Fprintln(os.Stderr, "kleb:", err)
	os.Exit(1)
}
