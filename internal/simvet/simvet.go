// Package simvet is a suite of four cross-package dataflow analyzers
// built on the suite's exported-facts mechanism (see facts.go). Each
// guards a property that a failing test cannot point at, or that no
// test sees at all:
//
//   - keypurity: everything reachable from a //simvet:keypath root
//     (simrun's content-key hashing and the engine fingerprint probe)
//     must be a pure, canonical function of its inputs — no map
//     iteration, no %v on floats/maps/pointers, no process-state reads
//     (env, hostname, time, CPU count), so a cache key can never
//     depend on where or when it was computed;
//
//   - wirestable: the canonical schema of every //simvet:wire struct
//     and constant (the simd HTTP request/response types, the simrun
//     progress counters, the cache-entry layout, the metrics CSV
//     header) is diffed against the committed docs/wire.lock golden,
//     so accidental wire-format changes fail CI with a readable schema
//     diff and intentional ones regenerate the lock
//     (go run ./cmd/simvet -writewire);
//
//   - lockscope: no blocking operation — channel send/receive,
//     ctx.Done() waits, disk and network I/O, functions annotated
//     //simvet:blocking — while holding a sync.Mutex/RWMutex in
//     internal/server or internal/simrun, with blocking summaries
//     propagated through the call graph across packages;
//
//   - ctxflow: every loop reachable from a //simvet:ctxbound root
//     (job execution, the plan executor, point legs, drain
//     paths) that can block or compute without bound must observe its
//     context each iteration, generalizing the hand-maintained "check
//     ctx every 8192 cycles" rule into an enforced property.
//
// Determinism and the 0 allocs/cycle Step path are held by tests
// instead: TestRegistryDigests, TestPinnedKeys and TestSweepPinned pin
// the simulated results, and the engine's TestStepAllocs measures
// Step, Run and RunUntilDrained on every family.
//
// The suite mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic, object facts, `// want` fixtures) but
// is built purely on the standard library's go/ast, go/parser and
// go/types so the module stays dependency-free; if x/tools is ever
// vendored, each analyzer ports mechanically. Run it with
// `go run ./cmd/simvet ./...` or through the `simvet` CI job.
//
// Annotations recognized in source comments:
//
//	//simvet:orderfree on (or immediately above) a `range` statement
//	                   over a map on a keypath: the loop body is
//	                   order-insensitive, so the nondeterministic
//	                   iteration order is harmless. Justify the claim
//	                   in the same comment.
//	//simvet:keypath   on a function declaration: the function derives
//	                   cache-key material; keypurity checks it and
//	                   everything it (transitively) calls, across
//	                   packages, for process-state dependence.
//	//simvet:keypure   on a function declaration: audited — the
//	                   function's output is deterministic despite what
//	                   the analyzer would infer; keypurity treats it as
//	                   a pure leaf. Justify in the same comment.
//	//simvet:wire      on a struct type or string constant: the
//	                   declaration is wire format; wirestable locks its
//	                   schema in docs/wire.lock.
//	//simvet:blocking  on a function declaration: treat calls to it as
//	                   blocking operations (unbounded compute or I/O)
//	                   for lockscope and ctxflow.
//	//simvet:ctxbound  on a function declaration: a cancellation root;
//	                   ctxflow requires every can-block loop reachable
//	                   from it to observe the context.
//	//simvet:bounded   on (or directly above) a loop: the loop
//	                   provably terminates in bounded time without
//	                   external input, so no context check is needed.
//	                   Justify the claim in the same comment.
//	//simvet:blockok   on (or directly above) a statement: audited —
//	                   this operation may block while a lock is held,
//	                   and that is the design. Justify in the comment.
package simvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. This mirrors
// golang.org/x/tools/go/analysis.Analyzer (Name, Doc, Run) minus the
// dependency-injection machinery the suite does not need.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pass *Pass) error

	// Finish, if non-nil, runs once per module after Run has been
	// applied to every package, with a module-level Pass (Pkg, Files
	// and Info are nil; Path is the module path). Analyzers that
	// assemble a module-wide view from exported facts — wirestable's
	// lock comparison — report from here.
	Finish func(pass *Pass) error
}

// A Pass provides one analyzer with one type-checked package plus a
// view of the whole module.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Path     string      // package import path
	Files    []*ast.File // non-test files, type-checked
	Pkg      *types.Package
	Info     *types.Info
	Module   *Module // every package of the module under analysis

	Report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// All returns the full suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{KeyPurity, WireStable, LockScope, CtxFlow}
}

// hasDirective reports whether the comment group carries the given
// //simvet: directive (prose may follow the directive on the line).
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, "//"+directive) {
			return true
		}
	}
	return false
}

// RunAnalyzers applies the analyzers to every package of the module
// and returns the diagnostics sorted by position. Each analyzer
// visits packages in dependency order (imports before importers), so
// a pass can ImportFact summaries that earlier passes of the same
// analyzer exported for the packages it depends on; an analyzer's
// Finish hook, if any, runs after its last package pass.
func RunAnalyzers(mod *Module, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	ordered := mod.PackagesInDependencyOrder()
	for _, a := range analyzers {
		for _, pkg := range ordered {
			pass := &Pass{
				Analyzer: a,
				Fset:     mod.Fset,
				Path:     pkg.Path,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Module:   mod,
				Report:   report,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
		if a.Finish != nil {
			pass := &Pass{
				Analyzer: a,
				Fset:     mod.Fset,
				Path:     mod.Path,
				Module:   mod,
				Report:   report,
			}
			if err := a.Finish(pass); err != nil {
				return nil, fmt.Errorf("%s: finish: %w", a.Name, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
