package main

import (
	"fmt"
	"io"
	"os"

	"kleb/internal/session"
	"kleb/internal/telemetry"
)

// setupBatchTelemetry installs the process-wide batch sink the -trace and
// -metrics flags ask for, aggregating every experiment's runs. The batch
// registry merges commutatively, so the exported metrics are identical at
// any -workers value; the trace additionally records one run-completion
// event per Spec in batch order. Metrics-only requests skip the event
// ring entirely. Reports whether an export is due after the run.
func setupBatchTelemetry(tracePath, metricsPath string) bool {
	switch {
	case tracePath != "":
		session.SetBatchTelemetry(telemetry.New())
	case metricsPath != "":
		session.SetBatchTelemetry(telemetry.MetricsOnly())
	default:
		return false
	}
	return true
}

// exportBatchTelemetry writes the process-wide batch sink's trace and/or
// metrics to the requested files after a run.
func exportBatchTelemetry(tracePath, metricsPath string) error {
	sink := session.BatchTelemetry()
	if sink == nil {
		return nil
	}
	write := func(path string, render func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			_ = f.Close() // the render failure is the error worth reporting
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote telemetry to %s\n", path)
		return nil
	}
	if err := write(tracePath, sink.WriteChromeTrace); err != nil {
		return err
	}
	return write(metricsPath, sink.WritePrometheus)
}
