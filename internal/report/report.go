// Package report renders experiment artifacts as a single Markdown document
// — the machine-generated counterpart of EXPERIMENTS.md, so the
// paper-vs-measured record can be regenerated from scratch with one
// command (`cmd/experiments -md results.md all`) instead of being
// hand-transcribed.
package report

import (
	"fmt"
	"io"
)

// Writer accumulates sections into one Markdown document.
type Writer struct {
	w   io.Writer
	err error
}

// New starts a document with the standard preamble.
func New(w io.Writer) *Writer {
	r := &Writer{w: w}
	r.printf("# K-LEB reproduction — generated results\n\n")
	r.printf("Produced by `cmd/experiments`; every number below is measured on the\n")
	r.printf("simulated substrate (see DESIGN.md §1 for the calibration contract).\n")
	return r
}

// Err returns the first write error, if any.
func (r *Writer) Err() error { return r.err }

func (r *Writer) printf(format string, args ...any) {
	if r.err != nil {
		return
	}
	_, r.err = fmt.Fprintf(r.w, format, args...)
}

func (r *Writer) section(title string) {
	r.printf("\n## %s\n\n", title)
}

// Section adds one artifact under a "## title" heading: its rendered text
// verbatim in a fenced block, then the paper's reported values when paper
// is not empty.
func (r *Writer) Section(title, paper string, text []byte) {
	r.section(title)
	r.printf("```\n%s", text)
	if n := len(text); n > 0 && text[n-1] != '\n' {
		r.printf("\n")
	}
	r.printf("```\n")
	if paper != "" {
		r.printf("\nPaper: %s\n", paper)
	}
}
