package simvet

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces bounded cancellation latency. A function annotated
// //simvet:ctxbound is a cancellation root — job execution, the plan
// executor, drain paths: once its context is canceled it must return
// promptly. The analyzer walks the static call graph from each root,
// across packages, and flags every loop that can stall an iteration —
// it blocks (channel ops, I/O, calls whose summaries say they block)
// or has no loop condition at all — yet never observes
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
	run:  runCtxFlow,
}

// runCtxFlow reports every stalled loop reachable from a ctxbound
// root. A //simvet:blocking callee is a boundary: the call site is the
// blocking operation.
func runCtxFlow(ix *index, report reportFunc) {
	// Fixpoint: a function observes its context if its body checks one
	// directly or passes one to an observing callee.
	observes := make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for _, fn := range ix.funcs {
			if fd := ix.decls[fn]; !observes[fn] && fd.Body != nil && observesCtx(ix.Info, fd.Body, observes) {
				observes[fn] = true
				changed = true
			}
		}
	}

	boundary := func(root, fn *types.Func) bool { return fn != root && ix.has(fn, "simvet:blocking") }
	ix.reportReachable("simvet:ctxbound", boundary, func(fn *types.Func) []finding { return loopFindings(ix, fn, observes) }, report)
}

// loopFindings finds the loops in fn — including inside goroutine and
// closure bodies, which is where worker loops live — that can stall
// an iteration but never observe a context.
func loopFindings(ix *index, fn *types.Func, observes map[*types.Func]bool) []finding {
	fd := ix.decls[fn]
	if fd.Body == nil {
		return nil
	}
	bounded := ix.stmtDirectives(ix.files[fn], "simvet:bounded")
	var findings []finding
	check := func(loop ast.Node) {
		if directiveAt(bounded, ix.Fset.Position(loop.Pos()).Line) {
			return
		}
		why := loopStallWhy(ix, loop)
		if why == "" {
			return
		}
		if observesCtx(ix.Info, loop, observes) {
			return
		}
		findings = append(findings, finding{
			pos: loop.Pos(),
			msg: "loop can stall an iteration (" + why + ") but never observes a context; check ctx.Err() or select on ctx.Done() each iteration, or annotate //simvet:bounded with the justification",
		})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			check(n)
		}
		return true
	})
	return findings
}

// loopStallWhy reports why one iteration of the loop might take
// unbounded time, or "" if it cannot: a blocking operation anywhere in
// the loop, or no loop condition at all (for {} spins until something
// inside it decides to stop, which had better include cancellation).
func loopStallWhy(ix *index, loop ast.Node) string {
	if hits := ix.scanBlockingOps(loop, true); len(hits) > 0 {
		return hits[0].why
	}
	if f, ok := loop.(*ast.ForStmt); ok && f.Cond == nil {
		return "no loop condition"
	}
	return ""
}

// observesCtx reports whether the subtree checks a context.Context:
// a ctx.Err() or ctx.Done() use, or a call passing a ctx to a callee
// that observes it. Goroutine and closure bodies do not count — a
// check on another goroutine does not bound this loop.
func observesCtx(info *types.Info, root ast.Node, observes map[*types.Func]bool) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			if fn == nil {
				return true
			}
			if rt := recvType(fn); rt != nil && isContextType(rt) && (fn.Name() == "Err" || fn.Name() == "Done" || fn.Name() == "Deadline") {
				found = true
				return false
			}
			if observes[fn] {
				for _, arg := range n.Args {
					if tv, ok := info.Types[arg]; ok && tv.Type != nil && isContextType(tv.Type) {
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
