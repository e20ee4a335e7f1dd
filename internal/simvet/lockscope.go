package simvet

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// LockScope forbids blocking while holding a mutex in the serving
// path. internal/server and internal/simrun multiplex many jobs over
// shared state guarded by sync.Mutex/RWMutex; a channel operation,
// disk read, HTTP call or unbounded simulation run inside a critical
// section turns one slow job into a server-wide stall (and, with the
// job queue, a deadlock candidate). The analyzer tracks the set of
// held locks through each function body and reports every operation
// that may block — directly (channel ops, selects without default,
// stdlib I/O, interface Read/Write, interface methods annotated
// //simvet:blocking such as simrun.Store's) or transitively (a call to a
// function whose blocking summary says it blocks, in any package) —
// while that set is non-empty.
//
// Approximations, chosen to keep the check reviewable: statements are
// walked in source order with branch bodies analyzed under a copy of
// the entry lock set; the first Unlock of a mutex clears it (early
// conditional unlocks therefore under-approximate); goroutine and
// closure bodies start with no inherited locks; lock acquisition
// through helper methods is not modeled. Audited block-while-locked
// sites — e.g. serializing writes to the configured log writer — are
// annotated //simvet:blockok with justification.
var LockScope = &Analyzer{
	Name: "lockscope",
	Doc:  "forbid blocking operations (channel ops, I/O, blocking calls) while holding a mutex in internal/server, internal/simrun and internal/fleet",
	run:  runLockScope,
}

// lockScopedSuffixes lists the packages whose critical sections are
// checked. Blocking summaries are still computed module-wide so a
// server-held lock spanning a call into simrun or engine is caught.
var lockScopedSuffixes = []string{"internal/server", "internal/simrun", "internal/fleet"}

func isLockScopedPackage(path string) bool {
	for _, sfx := range lockScopedSuffixes {
		if path == sfx || strings.HasSuffix(path, "/"+sfx) {
			return true
		}
	}
	return false
}

func runLockScope(ix *index, report reportFunc) {
	for _, fn := range ix.funcs {
		if fd := ix.decls[fn]; fd.Body != nil && isLockScopedPackage(fn.Pkg().Path()) {
			checkLockedSections(ix, fn, report)
		}
	}
}

// checkLockedSections walks fd's statements in source order, tracking
// which mutexes are held, and reports blocking operations inside
// critical sections.
func checkLockedSections(ix *index, fn *types.Func, reportf reportFunc) {
	fd := ix.decls[fn]
	blockok := ix.stmtDirectives(ix.files[fn], "simvet:blockok")

	report := func(n ast.Node, held map[string]bool) {
		for _, hit := range ix.scanBlockingOps(n, true) {
			pos := ix.Fset.Position(hit.pos)
			if directiveAt(blockok, pos.Line) {
				continue
			}
			reportf(pos, "blocking operation (%s) in %s while holding %s; shrink the critical section, or annotate //simvet:blockok with the justification", hit.why, fd.Name.Name, heldNames(held))
		}
	}
	reportExprs := func(held map[string]bool, exprs ...ast.Node) {
		if len(held) == 0 {
			return
		}
		for _, e := range exprs {
			if e != nil {
				report(e, held)
			}
		}
	}

	var walk func(stmts []ast.Stmt, held map[string]bool)
	walk = func(stmts []ast.Stmt, held map[string]bool) {
		for _, stmt := range stmts {
			switch s := stmt.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					if key, op := mutexOp(ix.Info, call); op != "" {
						switch op {
						case "Lock", "RLock":
							held[key] = true
						case "Unlock", "RUnlock":
							delete(held, key)
						}
						continue
					}
				}
				reportExprs(held, s.X)
			case *ast.DeferStmt:
				// defer mu.Unlock() keeps the lock held to return;
				// other deferred work runs outside this walk's scope.
			case *ast.GoStmt:
				// The launched body inherits no locks; it is walked
				// below with the other function literals.
			case *ast.BlockStmt:
				walk(s.List, held)
			case *ast.LabeledStmt:
				walk([]ast.Stmt{s.Stmt}, held)
			case *ast.IfStmt:
				reportExprs(held, s.Init, s.Cond)
				walk(s.Body.List, copyHeld(held))
				if s.Else != nil {
					walk([]ast.Stmt{s.Else}, copyHeld(held))
				}
			case *ast.ForStmt:
				reportExprs(held, s.Init, s.Cond, s.Post)
				walk(s.Body.List, copyHeld(held))
			case *ast.RangeStmt:
				if len(held) > 0 {
					if t := ix.Info.Types[s.X].Type; t != nil {
						if _, isChan := t.Underlying().(*types.Chan); isChan {
							report(s.X, held)
						}
					}
				}
				reportExprs(held, s.X)
				walk(s.Body.List, copyHeld(held))
			case *ast.SwitchStmt:
				reportExprs(held, s.Init, s.Tag)
				for _, c := range s.Body.List {
					walk(c.(*ast.CaseClause).Body, copyHeld(held))
				}
			case *ast.TypeSwitchStmt:
				reportExprs(held, s.Init)
				for _, c := range s.Body.List {
					walk(c.(*ast.CaseClause).Body, copyHeld(held))
				}
			default:
				// Leaf statements (assignments, returns, sends,
				// selects, ...): scan whole if any lock is held.
				reportExprs(held, stmt)
			}
		}
	}
	walk(fd.Body.List, map[string]bool{})
	// Closure and goroutine bodies start with no inherited locks but
	// have critical sections of their own (the request-log serializer
	// lives in a handler closure); each gets its own walk.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			walk(lit.Body.List, map[string]bool{})
		}
		return true
	})
}

// mutexOp recognizes a direct Lock/RLock/Unlock/RUnlock call on a
// sync.Mutex or sync.RWMutex (including one embedded in a struct) and
// returns the receiver expression as the lock's identity.
func mutexOp(info *types.Info, call *ast.CallExpr) (key, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return types.ExprString(sel.X), fn.Name()
	}
	return "", ""
}

// heldNames renders the held-lock set deterministically.
func heldNames(held map[string]bool) string {
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}
