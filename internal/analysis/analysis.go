// Package analysis is the simulator's static-analysis suite: the
// klebvet analyzers that machine-check the determinism and telemetry
// invariants the reproduction's bit-identical-artifacts guarantee rests
// on (DESIGN.md §7). The API deliberately mirrors a subset of
// golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic — but is
// built only on the standard library's go/ast and go/types so the module
// stays dependency-free; if the repo ever vendors x/tools the analyzers
// port mechanically.
//
// Findings are suppressed with an allow comment:
//
//	t0 := time.Now() //klebvet:allow walltime -- real benchmark timing
//
// The comment names one or more analyzers (comma-separated) and applies
// to the full span of its enclosing statement (so a trailing comment on
// any line of a multi-line call chain covers the whole chain), to the
// statement directly below when written standalone, and — as a
// conservative floor — always to its own line and the next. Everything
// after " -- " is a free-form reason.
//
// Two analyzer shapes share the suite: per-package analyzers implement
// Run and see one type-checked package at a time; whole-program
// analyzers implement RunProgram and see a Program — every loaded
// package in dependency order plus the cross-package call graph and the
// per-function facts propagated over it (see program.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named, self-contained check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the check to one package, reporting findings via
	// pass.Report (or pass.Reportf). Exactly one of Run and RunProgram
	// is set.
	Run func(*Pass) error
	// RunProgram applies a whole-program check to a Program (every
	// loaded package plus call graph and propagated facts), reporting
	// findings via pass.Report. Exactly one of Run and RunProgram is
	// set.
	RunProgram func(*ProgramPass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Report records one finding. Findings on lines carrying a matching
// //klebvet:allow comment are filtered before they reach the caller.
func (p *Pass) Report(d Diagnostic) {
	p.report(d) //klebvet:allow emitguard -- Run installs report on every Pass it builds
}

// Reportf records a formatted finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// All returns the full klebvet suite in stable order: the seven
// per-package analyzers first, then the three whole-program facts
// analyzers (detertaint, hotalloc, ledgerguard).
func All() []*Analyzer {
	return []*Analyzer{
		Walltime, SeededRand, MapOrder, EmitGuard, LockDiscipline, DroppedErr, HTTPGuard,
		DeterTaint, HotAlloc, LedgerGuard,
	}
}

// Run applies a to one type-checked package and returns the surviving
// (non-allowlisted) diagnostics sorted by position.
func Run(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	if a.Run == nil {
		return nil, fmt.Errorf("analysis: %s is a whole-program analyzer; drive it with RunProgram", a.Name)
	}
	allow := buildAllowIndex(fset, files, a.Name)
	var out []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		report: func(d Diagnostic) {
			if !allow.suppresses(fset.Position(d.Pos)) {
				out = append(out, d)
			}
		},
	}
	//klebvet:allow emitguard -- Run is a required field of every Analyzer
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}

// allowPrefix introduces a suppression comment.
const allowPrefix = "//klebvet:allow"

// allowIndex records, per file, the lines on which one analyzer's
// findings are suppressed.
type allowIndex map[string]map[int]bool

func (ai allowIndex) suppresses(pos token.Position) bool {
	return ai[pos.Filename][pos.Line]
}

// buildAllowIndex scans every comment for //klebvet:allow directives
// naming the analyzer and marks the full line span of the statement the
// comment belongs to: the innermost simple statement whose lines include
// the comment (so a trailing comment on the last line of a multi-line
// call chain covers the whole chain), or the statement starting on the
// next line for a standalone comment. The comment's own line and the
// line below are always marked, preserving the original floor.
func buildAllowIndex(fset *token.FileSet, files []*ast.File, name string) allowIndex {
	ai := make(allowIndex)
	for _, f := range files {
		var spans []stmtSpan
		haveSpans := false
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseAllow(c.Text)
				if !ok || !names[name] {
					continue
				}
				p := fset.Position(c.Pos())
				lines := ai[p.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					ai[p.Filename] = lines
				}
				lines[p.Line] = true
				lines[p.Line+1] = true
				if !haveSpans {
					spans = fileStmtSpans(fset, f)
					haveSpans = true
				}
				if start, end, ok := spanForAllow(spans, p.Line); ok {
					for l := start; l <= end; l++ {
						lines[l] = true
					}
				}
			}
		}
	}
	return ai
}

// stmtSpan is the line extent of one statement-like node. simple marks
// nodes safe to use for containing-line matches: a trailing allow
// comment inside an if/for/switch body must suppress only the simple
// statement it trails, never the whole compound construct around it.
type stmtSpan struct {
	start, end int
	simple     bool
}

// fileStmtSpans collects the line spans of every statement, declaration,
// spec and field in f, classifying compound statements (whose bodies
// contain other statements) separately from simple ones.
func fileStmtSpans(fset *token.FileSet, f *ast.File) []stmtSpan {
	var spans []stmtSpan
	add := func(n ast.Node, simple bool) {
		spans = append(spans, stmtSpan{
			start:  fset.Position(n.Pos()).Line,
			end:    fset.Position(n.End()).Line,
			simple: simple,
		})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt, *ast.ExprStmt, *ast.ReturnStmt, *ast.GoStmt,
			*ast.DeferStmt, *ast.SendStmt, *ast.IncDecStmt, *ast.BranchStmt,
			*ast.ValueSpec, *ast.TypeSpec, *ast.ImportSpec, *ast.Field:
			add(n, true)
		case *ast.GenDecl:
			add(n, !n.Lparen.IsValid())
		case *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt,
			*ast.TypeSwitchStmt, *ast.SelectStmt, *ast.LabeledStmt,
			*ast.FuncDecl, *ast.CaseClause, *ast.CommClause:
			add(n, false)
		}
		return true
	})
	return spans
}

// spanForAllow resolves the statement span an allow comment on `line`
// suppresses: the narrowest simple statement whose lines contain the
// comment, else the narrowest statement starting on the next line.
func spanForAllow(spans []stmtSpan, line int) (start, end int, ok bool) {
	best := -1
	for i, s := range spans {
		if !s.simple || s.start > line || line > s.end {
			continue
		}
		if best < 0 || s.end-s.start < spans[best].end-spans[best].start {
			best = i
		}
	}
	if best < 0 {
		// Standalone comment: suppress the statement starting directly
		// below (compound statements included — the comment names its
		// target explicitly).
		for i, s := range spans {
			if s.start != line+1 {
				continue
			}
			if best < 0 || s.end-s.start < spans[best].end-spans[best].start {
				best = i
			}
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return spans[best].start, spans[best].end, true
}

// parseAllow extracts the analyzer names from one allow comment.
// Accepted shape: //klebvet:allow name1,name2 [-- reason].
func parseAllow(text string) (map[string]bool, bool) {
	if !strings.HasPrefix(text, allowPrefix) {
		return nil, false
	}
	rest := strings.TrimPrefix(text, allowPrefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, false
	}
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = rest[:i]
	}
	names := make(map[string]bool)
	for _, field := range strings.Fields(rest) {
		for _, n := range strings.Split(field, ",") {
			if n != "" {
				names[n] = true
			}
		}
	}
	return names, len(names) > 0
}
