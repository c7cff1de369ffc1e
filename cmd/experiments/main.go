// Command experiments regenerates the tables and figures of the paper's
// evaluation and the extension studies, one experiments.Registry entry per
// study (DESIGN.md §3 indexes them against the paper). Run `experiments -h`
// for the list of names; `experiments all` runs every paper-facing entry
// once.
//
// Every experiment fans its independent simulated runs over a worker pool
// (-workers, default GOMAXPROCS); results are bit-identical for any pool
// size. With -md FILE, every artifact the command prints is also written
// to FILE as a section of a Markdown report (the regenerable EXPERIMENTS
// record). The pseudo-command "telemetry-bench" bounds the telemetry emit
// cost; "kernel-bench" micro-benchmarks the scheduler's event queue and
// execute loop and writes BENCH_kernel.json, and with -baseline FILE fails
// on a >25% ns/op regression (the CI gate driven by
// scripts/bench_kernel.sh). The -cpuprofile / -memprofile flags capture
// host pprof profiles of any command.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"kleb/internal/experiments"
	"kleb/internal/prof"
	"kleb/internal/report"
	"kleb/internal/session"
)

// stopProfiles flushes any active -cpuprofile / -memprofile capture; fail
// calls it so profiles survive error exits too.
var stopProfiles = func() error { return nil }

// fail reports a fatal error and exits, flushing profiles first.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format, args...)
	_ = stopProfiles() // best-effort flush on the way out
	os.Exit(1)
}

func main() {
	var (
		trials   = flag.Int("trials", 0, "trial count (0 = each experiment's default); fig6/fig7 average this many rounds, chaos sweeps this many fault plans")
		seed     = flag.Uint64("seed", 1, "base simulation seed")
		workers  = flag.Int("workers", 0, "scheduler pool size for each experiment's runs (0 = GOMAXPROCS)")
		mdPath   = flag.String("md", "", "also write every artifact the command prints to this file as a Markdown report")
		jsPath   = flag.String("json", "", "with the telemetry-bench/kernel-bench commands: write the JSON here")
		trPath   = flag.String("trace", "", "write batch-level telemetry as Chrome trace-event JSON to this file")
		mtPath   = flag.String("metrics", "", "write batch-level telemetry as Prometheus text to this file")
		basePath = flag.String("baseline", "", "with kernel-bench: compare against this BENCH_kernel.json and fail on regression")
		cpuProf  = flag.String("cpuprofile", "", "write a host CPU profile (pprof) to this file")
		memProf  = flag.String("memprofile", "", "write a host heap profile (pprof) to this file on exit")
	)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	stop, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fail("experiments: %v\n", err)
	}
	stopProfiles = stop
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: profile: %v\n", err)
		}
	}()
	cmd := flag.Arg(0)
	if cmd == "telemetry-bench" {
		if err := writeTelemetryBench(*jsPath, *seed); err != nil {
			fail("experiments telemetry-bench: %v\n", err)
		}
		return
	}
	if cmd == "kernel-bench" {
		if err := writeKernelBench(*jsPath, *basePath, *seed); err != nil {
			fail("experiments kernel-bench: %v\n", err)
		}
		return
	}
	if setupBatchTelemetry(*trPath, *mtPath) {
		defer func() {
			if err := exportBatchTelemetry(*trPath, *mtPath); err != nil {
				fail("experiments: telemetry export: %v\n", err)
			}
		}()
	}
	var md *report.Writer
	var mdBuf bytes.Buffer
	if *mdPath != "" {
		md = report.New(&mdBuf)
	}
	p := experiments.Params{Seed: *seed, Trials: *trials, Workers: *workers}
	if err := dispatch(cmd, p, md); err != nil {
		fail("experiments %v\n", err)
	}
	if md != nil {
		// Batch telemetry summary (present only when -trace/-metrics
		// installed a process-wide sink).
		md.Telemetry(session.BatchTelemetry())
		if err := md.Err(); err != nil {
			fail("experiments: markdown report: %v\n", err)
		}
		if err := os.WriteFile(*mdPath, mdBuf.Bytes(), 0o644); err != nil {
			fail("experiments: markdown report: %v\n", err)
		}
		fmt.Printf("wrote Markdown report to %s\n", *mdPath)
	}
}

// usage lists every registry entry by its names and title.
func usage() {
	out := flag.CommandLine.Output()
	fmt.Fprintf(out, "usage: experiments [flags] <name>\n\nnames:\n")
	line := func(names, title string) { fmt.Fprintf(out, "  %-16s %s\n", names, title) }
	for _, a := range experiments.Registry() {
		title := a.Title
		if a.Gate {
			title += " [gate, not in all]"
		}
		line(strings.Join(a.Names, ", "), title)
	}
	line("all", "every entry above that is not a gate, once each")
	line("telemetry-bench", "telemetry emit-cost bound (-json, default BENCH_telemetry.json)")
	line("kernel-bench", "scheduler fast-path micro-benchmarks (-json, default BENCH_kernel.json; -baseline gates)")
	fmt.Fprintf(out, "\nflags:\n")
	flag.PrintDefaults()
}

// allNames expands `all`: the first name of every non-gate registry entry,
// in registry order.
func allNames() []string {
	var names []string
	for _, a := range experiments.Registry() {
		if !a.Gate {
			names = append(names, a.Names[0])
		}
	}
	return names
}

// dispatch runs the registry entry named cmd, or each entry of `all`
// followed by a blank line. Each artifact is rendered once, then written
// to stdout and, when md is set, added to the Markdown report.
func dispatch(cmd string, p experiments.Params, md *report.Writer) error {
	names := []string{cmd}
	if cmd == "all" {
		names = allNames()
	}
	for _, name := range names {
		a, ok := experiments.Lookup(name)
		if !ok {
			return fmt.Errorf("%s: unknown experiment (run with -h for the list)", name)
		}
		var buf bytes.Buffer
		rerr := a.Render(p, &buf)
		if _, err := os.Stdout.Write(buf.Bytes()); err != nil {
			return err
		}
		if rerr != nil {
			return fmt.Errorf("%s: %w", name, rerr)
		}
		if md != nil {
			md.Section(a.Title, a.Paper, buf.Bytes())
		}
		if cmd == "all" {
			fmt.Println()
		}
	}
	return nil
}
