package simvet

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces bounded cancellation latency. A function annotated
// //simvet:ctxbound is a cancellation root — job execution, the plan
// executor, drain paths: once its context is canceled it must return
// promptly. The analyzer walks the static call graph from each root,
// across packages via exported facts, and flags every loop that can
// stall an iteration — it blocks (channel ops, I/O, calls whose facts
// say they block) or has no loop condition at all — yet never observes
// the context: no ctx.Err() check, no ctx.Done() receive, and no call
// that hands ctx to a context-observing callee. This generalizes the
// hand-maintained "check ctx every cancelQuantum cycles" rule of the
// point executor into a property the compiler of record enforces.
//
// Functions annotated //simvet:blocking are boundaries: a call to one
// is itself the blocking operation the caller must bracket with a
// check, and the analyzer does not descend into it (the engine's Run
// loops are bounded by their cycle-count argument; callers chunk them).
// Loops that provably finish fast without external input opt out with
// //simvet:bounded plus justification.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "require every can-block loop reachable from a //simvet:ctxbound root to observe its context each iteration",
	Run:  runCtxFlow,
}

// ctxFact is the exported per-function summary.
type ctxFact struct {
	Why      string // non-empty if calling the function may block
	Observes bool   // body checks a context.Context it receives
	Issues   []keyIssue
	Callees  []*types.Func
	Reported bool
}

func runCtxFlow(pass *Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	decls := packageDecls(pass)
	order := declOrder(pass, decls)
	extFact := func(fn *types.Func) *ctxFact {
		if f, ok := pass.ImportFact(fn); ok {
			return f.(*ctxFact)
		}
		return nil
	}
	extBlocked := func(fn *types.Func) (string, bool) {
		if f := extFact(fn); f != nil && f.Why != "" {
			return f.Why, true
		}
		return "", false
	}
	why, callees := blockingSummaries(pass, decls, order, extBlocked)

	// Fixpoint: a function observes its context if its body checks one
	// directly or passes one to an observing callee.
	observes := make(map[*types.Func]bool, len(order))
	calleeObserves := func(fn *types.Func) bool {
		if observes[fn] {
			return true
		}
		if f := extFact(fn); f != nil {
			return f.Observes
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			if observes[fn] {
				continue
			}
			if fd := decls[fn]; fd.Body != nil && observesCtx(pass, fd.Body, calleeObserves) {
				observes[fn] = true
				changed = true
			}
		}
	}

	calleeWhy := func(fn *types.Func) (string, bool) {
		if w := why[fn]; w != "" {
			return headline(w), true
		}
		if decls[fn] == nil {
			if w, ok := extBlocked(fn); ok {
				return headline(w), true
			}
		}
		return "", false
	}

	var roots []*types.Func
	for _, fn := range order {
		fd := decls[fn]
		if hasDirective(fd.Doc, "simvet:ctxbound") {
			roots = append(roots, fn)
		}
		pass.ExportFact(fn, &ctxFact{
			Why:      why[fn],
			Observes: observes[fn],
			Issues:   loopIssues(pass, fd, calleeWhy, calleeObserves),
			Callees:  callees[fn],
		})
	}

	for _, root := range roots {
		queue := []*types.Func{root}
		seen := map[*types.Func]bool{}
		for len(queue) > 0 {
			fn := queue[0]
			queue = queue[1:]
			if seen[fn] {
				continue
			}
			seen[fn] = true
			if fn != root && funcDirective(pass, fn, decls, "simvet:blocking") {
				continue // boundary: the call site is the blocking op
			}
			raw, ok := pass.ImportFact(fn)
			if !ok {
				continue
			}
			fact := raw.(*ctxFact)
			if !fact.Reported {
				fact.Reported = true
				for _, iss := range fact.Issues {
					pass.Reportf(iss.Pos, "%s (reachable from //simvet:ctxbound root %s)", iss.Msg, root.Name())
				}
			}
			queue = append(queue, fact.Callees...)
		}
	}
	return nil
}

// loopIssues finds the loops in fd — including inside goroutine and
// closure bodies, which is where worker loops live — that can stall
// an iteration but never observe a context.
func loopIssues(pass *Pass, fd *ast.FuncDecl, calleeWhy func(*types.Func) (string, bool), calleeObserves func(*types.Func) bool) []keyIssue {
	if fd.Body == nil {
		return nil
	}
	file := enclosingFile(pass, fd.Pos())
	bounded := stmtDirectives(pass, file, "simvet:bounded")
	var issues []keyIssue
	check := func(loop ast.Node) {
		if directiveAt(bounded, pass.Fset.Position(loop.Pos()).Line) {
			return
		}
		why := loopStallWhy(pass, loop, calleeWhy)
		if why == "" {
			return
		}
		if observesCtx(pass, loop, calleeObserves) {
			return
		}
		issues = append(issues, keyIssue{
			Pos: loop.Pos(),
			Msg: "loop can stall an iteration (" + why + ") but never observes a context; check ctx.Err() or select on ctx.Done() each iteration, or annotate //simvet:bounded with the justification",
		})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			check(n)
		}
		return true
	})
	return issues
}

// loopStallWhy reports why one iteration of the loop might take
// unbounded time, or "" if it cannot: a blocking operation anywhere in
// the loop, or no loop condition at all (for {} spins until something
// inside it decides to stop, which had better include cancellation).
func loopStallWhy(pass *Pass, loop ast.Node, calleeWhy func(*types.Func) (string, bool)) string {
	if hits := scanBlockingOps(pass, loop, calleeWhy); len(hits) > 0 {
		return hits[0].why
	}
	if f, ok := loop.(*ast.ForStmt); ok && f.Cond == nil {
		return "no loop condition"
	}
	return ""
}

// observesCtx reports whether the subtree checks a context.Context:
// a ctx.Err() or ctx.Done() use, or a call passing a ctx to a callee
// whose summary observes it. Goroutine and closure bodies do not
// count — a check on another goroutine does not bound this loop.
func observesCtx(pass *Pass, root ast.Node, calleeObserves func(*types.Func) bool) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false
		case *ast.CallExpr:
			fn := calleeFunc(pass.Info, n)
			if fn == nil {
				return true
			}
			if rt := recvType(fn); rt != nil && isContextType(rt) && (fn.Name() == "Err" || fn.Name() == "Done" || fn.Name() == "Deadline") {
				found = true
				return false
			}
			if calleeObserves != nil && calleeObserves(fn) {
				for _, arg := range n.Args {
					if tv, ok := pass.Info.Types[arg]; ok && tv.Type != nil && isContextType(tv.Type) {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found
}
