package report

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"kleb/internal/experiments"
)

// TestReportRendersAllSections lays out one section per paper-facing
// registry entry and checks the Markdown shape: every title is a heading,
// every artifact sits in a closed fence, and the paper's values appear
// exactly where the registry quotes them.
func TestReportRendersAllSections(t *testing.T) {
	var sb strings.Builder
	r := New(&sb)
	var want []string
	for _, a := range experiments.Registry() {
		if a.Gate {
			continue
		}
		// The last line has no newline: the fence must still close on
		// its own line.
		r.Section(a.Title, a.Paper, []byte(a.Names[0]+" body\nlast line"))
		want = append(want, "\n## "+a.Title+"\n\n```\n"+a.Names[0]+" body\nlast line\n```\n")
		if a.Paper != "" {
			want = append(want, "```\n\nPaper: "+a.Paper+"\n")
		}
	}
	r.Telemetry(nil) // a nil sink renders nothing
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	out := sb.String()
	if !strings.HasPrefix(out, "# K-LEB reproduction") {
		t.Errorf("missing preamble:\n%s", out)
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("report missing %q", w)
		}
	}
	if got := strings.Count(out, "\n## "); got != 17 {
		t.Errorf("sections: %d, want 17", got)
	}
	if got := strings.Count(out, "Paper: "); got != 3 {
		t.Errorf("paper lines: %d, want Tables I–III", got)
	}
	for _, v := range []string{"37.24", "0.68", "21.40"} {
		if !strings.Contains(out, v) {
			t.Errorf("paper value %s missing", v)
		}
	}
}

// TestReportFig5 embeds a real registry artifact: Fig 5's rendered table
// lands verbatim under its heading, every image classified as the paper
// does.
func TestReportFig5(t *testing.T) {
	a, ok := experiments.Lookup("fig5")
	if !ok {
		t.Fatal("no fig5 entry")
	}
	var text bytes.Buffer
	if err := a.Render(experiments.Params{Seed: 1}, &text); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	r := New(&sb)
	r.Section(a.Title, a.Paper, text.Bytes())
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	out := sb.String()
	for _, want := range []string{"## Fig 5", "```\n" + text.String() + "```\n", "ruby ", "tomcat ", "memory-intensive", "yes"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	if strings.Contains(out, " NO\n") {
		t.Error("a classification mismatch leaked into the report")
	}
}

// errWriter fails after n bytes to exercise error propagation.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

func TestReportSurfacesWriteErrors(t *testing.T) {
	r := New(&errWriter{n: 16})
	r.Section("Timer granularity", "", []byte("facility requested achieved\n"))
	if r.Err() == nil {
		t.Error("write error swallowed")
	}
}
