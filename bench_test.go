// BenchmarkArtifacts regenerates every table and figure of the paper and
// every extension study (DESIGN.md §3), one sub-benchmark per
// experiments.Registry entry, each at its default trials, and fails if a
// study's paper claims do not hold there. The numbers themselves are in
// each rendered artifact and its golden; this times them. Workers follows GOMAXPROCS, so
//
//	go test -bench Artifacts -cpu 1,2 -benchtime 1x .
//
// times every artifact serially and on two workers.
package kleb_test

import (
	"io"
	"testing"

	"kleb"
	"kleb/internal/experiments"
)

func BenchmarkArtifacts(b *testing.B) {
	for _, a := range experiments.Registry() {
		b.Run(a.Names[0], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := a.Render(experiments.Params{Seed: 1}, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollectTelemetry prices the observability layer end to end: the
// same K-LEB Collect at 100µs, with telemetry off and with trace and
// metrics capture on. The gap between the two is what telemetry costs a
// monitored run; trace_bytes is the size of the Chrome trace "on" exports.
func BenchmarkCollectTelemetry(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var trace byteCount
			for i := 0; i < b.N; i++ {
				opts := kleb.CollectOptions{
					Workload: kleb.Synthetic(200_000_000, 1<<20, 0.02),
					Events:   []kleb.Event{kleb.Instructions, kleb.LLCMisses},
					Period:   100 * kleb.Microsecond,
					Seed:     1,
				}
				if on {
					trace = 0
					opts.Trace, opts.Metrics = &trace, io.Discard
				}
				if _, err := kleb.Collect(opts); err != nil {
					b.Fatal(err)
				}
			}
			if on {
				b.ReportMetric(float64(trace), "trace_bytes")
			}
		})
	}
}

// BenchmarkCollectServe is the monitored run that sets the tail of the
// serve benchmark: K-LEB at 100µs over the request-serving model, with
// telemetry off. Its cost is dominated by what K-LEB keeps per sample, the
// drained batches and the controller's CSV log in the simulated FS, so a
// return of re-copying growth on that path shows here.
func BenchmarkCollectServe(b *testing.B) {
	var samples int
	for i := 0; i < b.N; i++ {
		rep, err := kleb.Collect(kleb.CollectOptions{
			Workload: kleb.Serve(1),
			Events:   []kleb.Event{kleb.Instructions, kleb.LLCMisses},
			Period:   100 * kleb.Microsecond,
			Seed:     1,
		})
		if err != nil {
			b.Fatal(err)
		}
		samples = len(rep.Samples)
	}
	b.ReportMetric(float64(samples), "samples")
}

// byteCount is an io.Writer that counts the bytes written to it.
type byteCount int

func (c *byteCount) Write(p []byte) (int, error) {
	*c += byteCount(len(p))
	return len(p), nil
}
