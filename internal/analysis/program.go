package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the whole-program half of the suite: a Program indexes
// every function of every loaded package (in dependency order), builds a
// conservative type-based call graph over them — static calls, interface
// method dispatch resolved against the method sets of all source types,
// and calls through stored func values matched by signature — and
// propagates deterministic, position-independent per-function facts
// (determinism taint, may-allocate) to a fixpoint. The detertaint,
// hotalloc and ledgerguard analyzers run on top of it.

// Function-level directives recognized in doc comments.
const (
	// hotpathDirective marks a function whose whole static call tree
	// must be allocation-free (checked by hotalloc).
	hotpathDirective = "//klebvet:hotpath"
	// artifactDirective marks a function that produces a deterministic
	// artifact and must be transitively free of determinism taint
	// (checked by detertaint).
	artifactDirective = "//klebvet:artifact"
	// ledgerDirective on a struct type declares a conservation equation
	// over its fields: //klebvet:ledger fires = captured + dropped
	// (checked by ledgerguard).
	ledgerDirective = "//klebvet:ledger"
)

// A SourcePackage is one type-checked package handed to BuildProgram.
// cmd/klebvet adapts load.Package to it; all packages must share one
// token.FileSet.
type SourcePackage struct {
	ImportPath string
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// A Fact is one position-anchored, position-independently described
// property of a function: a determinism-taint source or an allocation
// site. Desc never contains positions, so fact exports are stable under
// reformatting.
type Fact struct {
	Pos  token.Pos
	Kind string // taint: the source analyzer's name; alloc: ""
	Desc string
}

// A CallSite is one call expression and its resolved callees. Static
// calls have exactly one callee; dynamic calls (interface dispatch,
// calls through func values) conservatively list every source function
// that could be invoked.
type CallSite struct {
	Pos     token.Pos
	Desc    string // "dep.Clock", "interface call Program.Next", "call through func value"
	Dynamic bool
	Callees []*FuncNode
}

// propFact is one propagated fact: why this function has the property,
// and the callee the property arrived through (nil at a seed).
type propFact struct {
	why string
	via *FuncNode
}

// A FuncNode is one function (declaration or literal) in the Program.
type FuncNode struct {
	Pkg  *SourcePackage
	Obj  *types.Func   // nil for function literals
	Decl *ast.FuncDecl // nil for function literals
	Lit  *ast.FuncLit  // nil for declarations

	// Name is the canonical, unique, position-independent identity:
	// "kleb/internal/fleet.wallNs", "(*kleb/internal/kleb.Module).onTimer",
	// literals as "<parent>$<n>" in source order.
	Name string
	// Short is the diagnostic-friendly form: "fleet.wallNs",
	// "kleb.(*Module).onTimer", "kernel.runCurrent$1".
	Short string

	Hotpath  bool
	Artifact bool

	Calls []*CallSite
	// TaintSrc are the function's own (unsuppressed) determinism-taint
	// sources; SuppTaint the allow-suppressed ones (audited by
	// detertaint's seam check). AllocSrc are its own (unsuppressed)
	// allocation sites.
	TaintSrc, SuppTaint, AllocSrc []Fact

	taint, alloc *propFact
}

// Tainted returns the propagated determinism-taint fact, or nil when the
// function is transitively clean.
func (n *FuncNode) Tainted() *propFact { return n.taint }

// Allocates returns the propagated may-allocate fact, or nil when the
// function is statically allocation-free.
func (n *FuncNode) Allocates() *propFact { return n.alloc }

// body returns the function's body block (nil for bodyless decls).
func (n *FuncNode) body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// pos returns the anchor position for diagnostics about the function.
func (n *FuncNode) pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Name.Pos()
	}
	return n.Lit.Pos()
}

// A Program is the whole-program view the RunProgram analyzers consume.
type Program struct {
	Fset *token.FileSet
	// Packages in dependency order (imports before importers, ties by
	// import path), so per-package processing is deterministic and
	// bottom-up.
	Packages []*SourcePackage
	// Nodes in deterministic order: package order, then file, then
	// source position.
	Nodes []*FuncNode

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
	// stored indexes every function value that escapes into a variable,
	// field, argument or return (func literals not immediately called,
	// referenced package functions, bound method values) by signature
	// key — the conservative callee set for calls through func values.
	stored map[string][]*FuncNode
	// named are all package-level named non-interface types, the
	// candidate implementers for interface dispatch.
	named []*types.Named
	// spans orders each file's function nodes for position→function
	// lookups.
	spans map[string][]nodeSpan
}

type nodeSpan struct {
	start, end token.Pos
	node       *FuncNode
}

// A ProgramPass hands one whole-program analyzer the Program.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	report func(Diagnostic)
}

// Report records one finding; allow-comment filtering happens in
// RunProgram, exactly as in the per-package driver.
func (pp *ProgramPass) Report(d Diagnostic) {
	pp.report(d) //klebvet:allow emitguard -- RunProgram installs report on every ProgramPass it builds
}

// Reportf records a formatted finding.
func (pp *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	pp.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// RunProgram applies a whole-program analyzer to prog and returns the
// surviving (non-allowlisted) diagnostics sorted by position.
func RunProgram(a *Analyzer, prog *Program) ([]Diagnostic, error) {
	if a.RunProgram == nil {
		return nil, fmt.Errorf("analysis: %s is a per-package analyzer; drive it with Run", a.Name)
	}
	allow := make(allowIndex)
	for _, sp := range prog.Packages {
		for file, lines := range buildAllowIndex(prog.Fset, sp.Files, a.Name) {
			allow[file] = lines
		}
	}
	var out []Diagnostic
	pass := &ProgramPass{
		Analyzer: a,
		Prog:     prog,
		report: func(d Diagnostic) {
			if !allow.suppresses(prog.Fset.Position(d.Pos)) {
				out = append(out, d)
			}
		},
	}
	if err := a.RunProgram(pass); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}

// BuildProgram indexes pkgs (which must share fset), builds the call
// graph and propagates taint and allocation facts. The result is fully
// deterministic: dependency-ordered packages, source-ordered functions,
// and worklists seeded and drained in index order.
func BuildProgram(fset *token.FileSet, pkgs []*SourcePackage) (*Program, error) {
	prog := &Program{
		Fset:   fset,
		byObj:  make(map[*types.Func]*FuncNode),
		byLit:  make(map[*ast.FuncLit]*FuncNode),
		stored: make(map[string][]*FuncNode),
		spans:  make(map[string][]nodeSpan),
	}
	prog.Packages = dependencyOrder(pkgs)
	for _, sp := range prog.Packages {
		prog.indexPackage(sp)
	}
	prog.collectNamedTypes()
	res := &resolver{prog: prog}
	for _, n := range prog.Nodes {
		if n.body() != nil {
			res.scanBody(n)
		}
	}
	res.resolveDeferred()
	prog.collectTaintSources()
	prog.propagate(
		func(n *FuncNode) bool { return len(n.TaintSrc) > 0 },
		func(n *FuncNode) *propFact { return n.taint },
		func(n *FuncNode, f *propFact) { n.taint = f },
	)
	prog.propagate(
		func(n *FuncNode) bool { return len(n.AllocSrc) > 0 },
		func(n *FuncNode) *propFact { return n.alloc },
		func(n *FuncNode, f *propFact) { n.alloc = f },
	)
	return prog, nil
}

// dependencyOrder topologically sorts pkgs so imports precede importers,
// breaking ties (and cycles, which go's importer forbids anyway) by
// import path.
func dependencyOrder(pkgs []*SourcePackage) []*SourcePackage {
	sorted := append([]*SourcePackage(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ImportPath < sorted[j].ImportPath })
	byPath := make(map[string]*SourcePackage, len(sorted))
	for _, sp := range sorted {
		byPath[sp.Pkg.Path()] = sp
	}
	var out []*SourcePackage
	state := make(map[*SourcePackage]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(sp *SourcePackage)
	visit = func(sp *SourcePackage) {
		if state[sp] != 0 {
			return
		}
		state[sp] = 1
		deps := append([]*types.Package(nil), sp.Pkg.Imports()...)
		sort.Slice(deps, func(i, j int) bool { return deps[i].Path() < deps[j].Path() })
		for _, dep := range deps {
			if dsp, ok := byPath[dep.Path()]; ok {
				visit(dsp)
			}
		}
		state[sp] = 2
		out = append(out, sp)
	}
	for _, sp := range sorted {
		visit(sp)
	}
	return out
}

// indexPackage creates FuncNodes for every declaration and literal in sp
// and records the hotpath/artifact directives.
func (prog *Program) indexPackage(sp *SourcePackage) {
	for _, f := range sp.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, _ := sp.Info.Defs[fd.Name].(*types.Func)
			n := &FuncNode{
				Pkg:   sp,
				Obj:   obj,
				Decl:  fd,
				Name:  declName(sp, fd, obj),
				Short: declShort(sp, fd, obj),
			}
			n.Hotpath = hasDirective(fd.Doc, hotpathDirective)
			n.Artifact = hasDirective(fd.Doc, artifactDirective)
			prog.addNode(n, fd.Pos(), fd.End())
			if obj != nil {
				prog.byObj[obj] = n
			}
			// Literals nested in this declaration, in source order.
			seq := 0
			if fd.Body != nil {
				ast.Inspect(fd.Body, func(x ast.Node) bool {
					lit, ok := x.(*ast.FuncLit)
					if !ok {
						return true
					}
					seq++
					ln := &FuncNode{
						Pkg:   sp,
						Lit:   lit,
						Name:  fmt.Sprintf("%s$%d", n.Name, seq),
						Short: fmt.Sprintf("%s$%d", n.Short, seq),
					}
					prog.addNode(ln, lit.Pos(), lit.End())
					prog.byLit[lit] = ln
					return true
				})
			}
		}
	}
}

func (prog *Program) addNode(n *FuncNode, start, end token.Pos) {
	prog.Nodes = append(prog.Nodes, n)
	file := prog.Fset.Position(start).Filename
	prog.spans[file] = append(prog.spans[file], nodeSpan{start: start, end: end, node: n})
}

// FuncAt returns the innermost function containing pos, or nil.
func (prog *Program) FuncAt(pos token.Pos) *FuncNode {
	file := prog.Fset.Position(pos).Filename
	var best *FuncNode
	var bestSize token.Pos = -1
	for _, s := range prog.spans[file] {
		if s.start <= pos && pos < s.end {
			if size := s.end - s.start; bestSize < 0 || size < bestSize {
				best, bestSize = s.node, size
			}
		}
	}
	return best
}

// declName renders the canonical unique name of a declared function.
func declName(sp *SourcePackage, fd *ast.FuncDecl, obj *types.Func) string {
	return funcName(sp.Pkg.Path(), fd, obj)
}

// declShort renders the diagnostic-friendly name.
func declShort(sp *SourcePackage, fd *ast.FuncDecl, obj *types.Func) string {
	base := sp.Pkg.Name()
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		return base + "." + recvString(fd.Recv.List[0].Type) + "." + fd.Name.Name
	}
	return base + "." + fd.Name.Name
}

func funcName(path string, fd *ast.FuncDecl, obj *types.Func) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return path + "." + fd.Name.Name
	}
	recv := recvString(fd.Recv.List[0].Type)
	if strings.HasPrefix(recv, "(*") {
		return "(*" + path + "." + strings.TrimSuffix(strings.TrimPrefix(recv, "(*"), ")") + ")." + fd.Name.Name
	}
	return path + "." + recv + "." + fd.Name.Name
}

// recvString renders a receiver type expression: "(*Module)" or "Clock".
func recvString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "(*" + recvString(e.X) + ")"
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return recvString(e.X)
	case *ast.IndexListExpr:
		return recvString(e.X)
	}
	return "?"
}

// hasDirective reports whether a doc comment group contains the given
// //klebvet: directive as a line of its own (trailing text allowed).
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// collectNamedTypes gathers every package-level named non-interface type
// as an interface-dispatch candidate.
func (prog *Program) collectNamedTypes() {
	for _, sp := range prog.Packages {
		scope := sp.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			prog.named = append(prog.named, named)
		}
	}
}

// taintSourceAnalyzers are the per-package analyzers whose findings seed
// determinism taint: each unsuppressed diagnostic becomes a taint source
// of its enclosing function.
func taintSourceAnalyzers() []*Analyzer { return []*Analyzer{Walltime, SeededRand, MapOrder} }

// collectTaintSources re-runs the syntactic source detectors raw (no
// allow filtering) over every package and buckets each finding into its
// enclosing function as active or suppressed taint. A finding is
// suppressed when covered by an allow comment for the source analyzer or
// for detertaint itself.
func (prog *Program) collectTaintSources() {
	for _, sp := range prog.Packages {
		for _, a := range taintSourceAnalyzers() {
			var raw []Diagnostic
			pass := &Pass{
				Analyzer:  a,
				Fset:      prog.Fset,
				Files:     sp.Files,
				Pkg:       sp.Pkg,
				TypesInfo: sp.Info,
				report:    func(d Diagnostic) { raw = append(raw, d) },
			}
			//klebvet:allow emitguard -- every taint-source analyzer is per-package with Run set
			if err := a.Run(pass); err != nil {
				continue // a source detector that errors contributes no facts
			}
			if len(raw) == 0 {
				continue
			}
			allowSelf := buildAllowIndex(prog.Fset, sp.Files, a.Name)
			allowTaint := buildAllowIndex(prog.Fset, sp.Files, DeterTaint.Name)
			for _, d := range raw {
				n := prog.FuncAt(d.Pos)
				if n == nil {
					continue // package-level initializer; out of scope
				}
				fact := Fact{Pos: d.Pos, Kind: a.Name, Desc: factDesc(d.Message)}
				p := prog.Fset.Position(d.Pos)
				if allowSelf.suppresses(p) || allowTaint.suppresses(p) {
					n.SuppTaint = append(n.SuppTaint, fact)
				} else {
					n.TaintSrc = append(n.TaintSrc, fact)
				}
			}
		}
	}
}

// factDesc compresses a diagnostic message into a short
// position-independent fact description.
func factDesc(msg string) string {
	if i := strings.IndexAny(msg, ":;"); i > 0 {
		msg = msg[:i]
	}
	return msg
}

// propagate floods a fact from its seed functions to every caller,
// deterministically: the worklist is seeded and drained in node index
// order, and callers are visited in node index order, so the recorded
// "via" chain is the same on every run.
func (prog *Program) propagate(seeded func(*FuncNode) bool, get func(*FuncNode) *propFact, set func(*FuncNode, *propFact)) {
	callers := make(map[*FuncNode][]struct {
		caller *FuncNode
		site   *CallSite
	})
	for _, n := range prog.Nodes {
		for _, cs := range n.Calls {
			for _, callee := range cs.Callees {
				callers[callee] = append(callers[callee], struct {
					caller *FuncNode
					site   *CallSite
				}{n, cs})
			}
		}
	}
	var queue []*FuncNode
	for _, n := range prog.Nodes {
		if seeded(n) {
			set(n, &propFact{})
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, edge := range callers[n] {
			if get(edge.caller) != nil {
				continue
			}
			why := "calls " + n.Short
			if edge.site.Dynamic {
				why = "may call " + n.Short + " (" + edge.site.Desc + ")"
			}
			set(edge.caller, &propFact{why: why, via: n})
			queue = append(queue, edge.caller)
		}
	}
}

// Chain renders the propagation path from n to the seed of fact f
// (taint or alloc), ending in the seed's first source description:
// "a.Run → b.Clock: time.Now would read the wall clock".
func (prog *Program) Chain(n *FuncNode, kind string) string {
	var names []string
	cur := n
	for i := 0; cur != nil && i < 8; i++ {
		names = append(names, cur.Short)
		var f *propFact
		if kind == "taint" {
			f = cur.taint
		} else {
			f = cur.alloc
		}
		if f == nil || f.via == nil {
			break
		}
		cur = f.via
	}
	desc := ""
	if cur != nil {
		var srcs []Fact
		if kind == "taint" {
			srcs = cur.TaintSrc
		} else {
			srcs = cur.AllocSrc
		}
		if len(srcs) > 0 {
			desc = sortedFirstDesc(srcs)
		}
	}
	chain := strings.Join(names, " → ")
	if desc != "" {
		return chain + ": " + desc
	}
	return chain
}

// sortedFirstDesc returns the lexically first description, so chains are
// position-independent even when a function has several sources.
func sortedFirstDesc(facts []Fact) string {
	best := facts[0].Desc
	for _, f := range facts[1:] {
		if f.Desc < best {
			best = f.Desc
		}
	}
	return best
}

// Facts exports the program's propagated per-function facts as sorted,
// position-independent lines — the golden-file surface of the engine.
// Seeds list their own source descriptions; propagated facts list the
// edge they arrived through.
func (prog *Program) Facts() []string {
	var out []string
	for _, n := range prog.Nodes {
		if n.Hotpath {
			out = append(out, "hotpath "+n.Name)
		}
		if n.Artifact {
			out = append(out, "artifact "+n.Name)
		}
		out = append(out, factLines("taint", n, n.taint, n.TaintSrc)...)
		out = append(out, factLines("alloc", n, n.alloc, n.AllocSrc)...)
	}
	sort.Strings(out)
	return out
}

func factLines(kind string, n *FuncNode, f *propFact, srcs []Fact) []string {
	if f == nil {
		return nil
	}
	if f.via == nil {
		descs := make([]string, 0, len(srcs))
		for _, s := range srcs {
			descs = append(descs, s.Desc)
		}
		sort.Strings(descs)
		lines := make([]string, 0, len(descs))
		for _, d := range descs {
			lines = append(lines, kind+" "+n.Name+": "+d)
		}
		return lines
	}
	return []string{kind + " " + n.Name + ": " + f.why}
}
