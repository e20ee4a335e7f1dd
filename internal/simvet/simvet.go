// Package simvet is a suite of four analyzers over the whole module,
// loaded and type-checked as one program and indexed once per run
// (the call graph, each function's directives, and one "may block,
// and why" summary). Each guards a property that a failing test
// cannot point at, or that no test sees at all:
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
//     internal/server, internal/simrun or internal/fleet, with
//     blocking summaries propagated through the call graph across
//     packages;
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
// The suite is built on the standard library's go/ast, go/parser and
// go/types alone, so the module stays dependency-free; its fixtures
// use the `// want` comments of x/tools' analysistest. Run it with
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
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// An Analyzer describes one invariant check: one function over the
// module's index, reporting through the function it is handed.
type Analyzer struct {
	Name string
	Doc  string
	run  func(ix *index, report reportFunc)
}

// A reportFunc records one diagnostic of the running analyzer.
type reportFunc func(pos token.Position, format string, args ...any)

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

// RunAnalyzers indexes the module once, applies each analyzer to the
// index and returns the diagnostics sorted by position. The index is
// built afresh per call, so repeated runs over one Module agree.
func RunAnalyzers(mod *Module, analyzers []*Analyzer) ([]Diagnostic, error) {
	ix := newIndex(mod)
	var diags []Diagnostic
	for _, a := range analyzers {
		a.run(ix, func(pos token.Position, format string, args ...any) {
			diags = append(diags, Diagnostic{Analyzer: a.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
		})
	}
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(
			cmp.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			cmp.Compare(a.Analyzer, b.Analyzer),
			cmp.Compare(a.Message, b.Message))
	})
	return diags, nil
}
