// BenchmarkArtifacts regenerates every table and figure of the paper and
// every extension study (DESIGN.md §3), one sub-benchmark per
// experiments.Registry entry, each at its default configuration. The
// numbers themselves are in each rendered artifact and its golden; this
// times them. Workers follows GOMAXPROCS, so
//
//	go test -bench Artifacts -cpu 1,2 -benchtime 1x .
//
// times every artifact serially and on two workers.
package kleb_test

import (
	"io"
	"testing"

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
