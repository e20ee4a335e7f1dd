package simvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file holds the call-graph plumbing shared by the cross-package
// dataflow analyzers (keypurity, lockscope, ctxflow). Each analyzer
// summarizes every function of a package bottom-up, exports the
// summary as a fact on the *types.Func, and consumes facts of the
// packages it imports — RunAnalyzers visits packages in dependency
// order, so an imported function's fact is always final by the time a
// call site is analyzed. Calls through function values and interface
// methods have no static callee and are not followed; where that
// matters (an io.Writer that might block) the analyzers classify the
// call site itself instead.

// packageDecls maps every function and method declared in the package
// under analysis to its syntax, in file order.
func packageDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	return decls
}

// declOrder returns the package's declared functions in source order,
// so every per-function loop in the analyzers is deterministic.
func declOrder(pass *Pass, decls map[*types.Func]*ast.FuncDecl) []*types.Func {
	order := make([]*types.Func, 0, len(decls))
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok && decls[fn] != nil {
				order = append(order, fn)
			}
		}
	}
	return order
}

// staticCallees lists the distinct static callees of fd's body in
// source order: package-local functions and methods plus module-local
// functions from imported packages (whose facts already exist).
func staticCallees(pass *Pass, fd *ast.FuncDecl, decls map[*types.Func]*ast.FuncDecl) []*types.Func {
	if fd.Body == nil {
		return nil
	}
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || seen[fn] {
			return true
		}
		if decls[fn] != nil || isModuleLocal(pass, fn) {
			seen[fn] = true
			out = append(out, fn)
		}
		return true
	})
	return out
}

// calleeFunc resolves the static callee of a call expression, or nil
// for calls through function values, builtins and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isModuleLocal reports whether obj is declared in a package of the
// module under analysis (as opposed to the standard library).
func isModuleLocal(pass *Pass, obj types.Object) bool {
	return obj.Pkg() != nil && pass.Module.Lookup(obj.Pkg().Path()) != nil
}

// funcDirective reports whether the declaration of fn (anywhere in the
// module) carries the given //simvet: directive. For functions of the
// package under analysis the declaration is in decls; for imported
// module-local functions, and for interface methods (whose declaration
// is a field of the interface type), it is found via the owning
// package's files.
func funcDirective(pass *Pass, fn *types.Func, decls map[*types.Func]*ast.FuncDecl, directive string) bool {
	if fd := decls[fn]; fd != nil {
		return hasDirective(fd.Doc, directive)
	}
	if fn.Pkg() == nil {
		return false
	}
	pkg := pass.Module.Lookup(fn.Pkg().Path())
	if pkg == nil {
		return false
	}
	pos := fn.Pos()
	var doc *ast.CommentGroup
	for _, f := range pkg.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			ast.Inspect(f, func(n ast.Node) bool {
				switch d := n.(type) {
				case *ast.FuncDecl:
					if d.Name.Pos() == pos {
						doc = d.Doc
					}
					return false // no body declares a function or interface looked up here
				case *ast.Field:
					for _, name := range d.Names {
						if name.Pos() == pos {
							doc = d.Doc
						}
					}
				}
				return doc == nil
			})
		}
	}
	return hasDirective(doc, directive)
}

// stmtDirectives returns the line numbers of every comment in f that
// carries the given //simvet: directive. A statement-level directive
// (//simvet:orderfree, bounded, blockok) applies to the line it shares
// with the statement or to the line directly above it (directiveAt).
func stmtDirectives(pass *Pass, f *ast.File, directive string) map[int]bool {
	var lines map[int]bool
	for _, g := range f.Comments {
		for _, c := range g.List {
			if strings.HasPrefix(c.Text, "//"+directive) {
				if lines == nil {
					lines = make(map[int]bool)
				}
				lines[pass.Fset.Position(c.Slash).Line] = true
			}
		}
	}
	return lines
}

// directiveAt reports whether lines marks the statement line or the
// line directly above it.
func directiveAt(lines map[int]bool, line int) bool {
	return lines != nil && (lines[line] || lines[line-1])
}

// blockingStdlib maps fully qualified standard-library functions and
// methods that block (I/O, sleeping, waiting) to a short reason.
// Qualification is pkgpath.Name for functions and pkgpath.Recv.Name
// for methods.
var blockingStdlib = map[string]string{
	"time.Sleep": "sleeps",

	"io.ReadAll":  "reads a stream",
	"io.Copy":     "copies a stream",
	"io.CopyN":    "copies a stream",
	"io.ReadFull": "reads a stream",

	"os.ReadFile":   "disk read",
	"os.WriteFile":  "disk write",
	"os.Open":       "disk open",
	"os.OpenFile":   "disk open",
	"os.Create":     "disk create",
	"os.CreateTemp": "disk create",
	"os.Remove":     "disk remove",
	"os.RemoveAll":  "disk remove",
	"os.Rename":     "disk rename",
	"os.Mkdir":      "disk mkdir",
	"os.MkdirAll":   "disk mkdir",
	"os.ReadDir":    "disk readdir",
	"os.Stat":       "disk stat",

	"os.File.Read":        "file read",
	"os.File.ReadAt":      "file read",
	"os.File.Write":       "file write",
	"os.File.WriteAt":     "file write",
	"os.File.WriteString": "file write",
	"os.File.Sync":        "file sync",
	"os.File.Close":       "file close",

	// The same disk I/O on a bare descriptor (simrun's readEntry).
	"syscall.Open":  "disk open",
	"syscall.Read":  "file read",
	"syscall.Close": "file close",

	"sync.WaitGroup.Wait": "waits on a WaitGroup",
	"sync.Cond.Wait":      "waits on a Cond",
}

// ioInterfaceMethods are method names whose call through an interface
// is classified as blocking: the dynamic implementation is unknown and
// the canonical implementations (files, sockets, pipes) block.
var ioInterfaceMethods = map[string]bool{
	"Read": true, "Write": true, "ReadFrom": true, "WriteTo": true,
	"Flush": true, "Sync": true,
}

// blockingCall classifies one call expression: ok reports whether the
// call is a blocking operation by itself (stdlib I/O, net/http,
// interface I/O methods, interface methods annotated
// //simvet:blocking), and why says why.
// Module-local static callees are NOT classified here — the analyzers
// consult their facts, which fold in the //simvet:blocking directive.
func blockingCall(pass *Pass, call *ast.CallExpr) (why string, ok bool) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		// Function value or interface method without type info.
		if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
			if s := pass.Info.Selections[sel]; s != nil {
				if m, isFn := s.Obj().(*types.Func); isFn && isInterfaceRecv(m) && ioInterfaceMethods[m.Name()] {
					return "interface " + m.Name() + " call", true
				}
			}
		}
		return "", false
	}
	if isInterfaceRecv(fn) && ioInterfaceMethods[fn.Name()] {
		return "interface " + fn.Name() + " call", true
	}
	if fn.Pkg() == nil {
		return "", false
	}
	if isModuleLocal(pass, fn) {
		if isInterfaceRecv(fn) && funcDirective(pass, fn, nil, "simvet:blocking") {
			return "interface " + fn.Name() + " call, annotated //simvet:blocking", true
		}
		return "", false // summarized by facts instead
	}
	path := fn.Pkg().Path()
	if path == "net/http" || path == "net" || path == "os/exec" {
		return "calls " + path, true
	}
	if why, hit := blockingStdlib[qualifiedName(fn)]; hit {
		return qualifiedName(fn) + " " + why, true
	}
	return "", false
}

// isInterfaceRecv reports whether fn is an interface method.
func isInterfaceRecv(fn *types.Func) bool {
	rt := recvType(fn)
	return rt != nil && types.IsInterface(rt)
}

// recvType returns the receiver type of a method (pointers stripped),
// or nil for plain functions.
func recvType(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	return t
}

// qualifiedName renders pkgpath.Name for functions and
// pkgpath.Recv.Name for methods, matching the blockingStdlib keys.
func qualifiedName(fn *types.Func) string {
	if rt := recvType(fn); rt != nil {
		if named, ok := rt.(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// A blockHit is one blocking operation found by scanBlockingOps.
type blockHit struct {
	pos token.Pos
	why string
}

// scanBlockingOps collects the blocking operations in the subtree at
// root: channel sends and receives (select-aware — a send or receive
// that is a comm clause of a select with a default case cannot block),
// selects without a default, ranges over channels, blocking standard
// library calls, interface I/O calls, and — when calleeWhy is non-nil
// — calls to module-local functions it classifies as blocking.
// Goroutine launches and function literals are skipped: their bodies
// do not run on the caller's stack.
func scanBlockingOps(pass *Pass, root ast.Node, calleeWhy func(*types.Func) (string, bool)) []blockHit {
	var hits []blockHit
	var scan func(n ast.Node)
	scan = func(root ast.Node) {
		if root == nil {
			return
		}
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt, *ast.FuncLit:
				return false
			case *ast.SelectStmt:
				hasDefault := false
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
						hasDefault = true
					}
				}
				if !hasDefault {
					hits = append(hits, blockHit{n.Pos(), "select with no default case"})
				}
				// Clause bodies run after the select resolves; scan
				// them, but not the comm expressions of a defaulted
				// select (those are non-blocking by construction).
				for _, c := range n.Body.List {
					cc := c.(*ast.CommClause)
					if !hasDefault && cc.Comm != nil {
						scan(cc.Comm)
					}
					for _, s := range cc.Body {
						scan(s)
					}
				}
				return false
			case *ast.SendStmt:
				hits = append(hits, blockHit{n.Pos(), "channel send"})
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					hits = append(hits, blockHit{n.Pos(), "channel receive"})
				}
			case *ast.RangeStmt:
				if t := pass.Info.Types[n.X].Type; t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						hits = append(hits, blockHit{n.Pos(), "range over channel"})
					}
				}
			case *ast.CallExpr:
				if why, ok := blockingCall(pass, n); ok {
					hits = append(hits, blockHit{n.Pos(), why})
				} else if calleeWhy != nil {
					if fn := calleeFunc(pass.Info, n); fn != nil {
						if why, ok := calleeWhy(fn); ok {
							hits = append(hits, blockHit{n.Pos(), "calls " + fn.Name() + ", which " + why})
						}
					}
				}
			}
			return true
		})
	}
	scan(root)
	return hits
}

// blockingSummaries computes, for every function declared in the
// package under analysis, whether calling it may block, as a why
// string ("" = does not block). A function blocks if it is annotated
// //simvet:blocking, contains a direct blocking operation, or calls
// (transitively, to a fixpoint — recursion is safe) a function that
// blocks; extBlocked resolves imported module-local callees from the
// calling analyzer's facts. The callee lists are returned too, for
// reachability walks.
func blockingSummaries(pass *Pass, decls map[*types.Func]*ast.FuncDecl, order []*types.Func, extBlocked func(*types.Func) (string, bool)) (map[*types.Func]string, map[*types.Func][]*types.Func) {
	why := make(map[*types.Func]string, len(order))
	callees := make(map[*types.Func][]*types.Func, len(order))
	for _, fn := range order {
		fd := decls[fn]
		callees[fn] = staticCallees(pass, fd, decls)
		if hasDirective(fd.Doc, "simvet:blocking") {
			why[fn] = "is annotated //simvet:blocking"
			continue
		}
		if fd.Body != nil {
			if hits := scanBlockingOps(pass, fd.Body, nil); len(hits) > 0 {
				why[fn] = hits[0].why
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			if why[fn] != "" {
				continue
			}
			for _, c := range callees[fn] {
				w := why[c]
				if w == "" && decls[c] == nil {
					if ew, ok := extBlocked(c); ok {
						w = ew
					}
				}
				if w != "" {
					why[fn] = "calls " + c.Name() + ", which " + headline(w)
					changed = true
					break
				}
			}
		}
	}
	return why, callees
}

// headline compresses a nested why-chain to its first link so
// propagated messages stay readable.
func headline(why string) string {
	if i := strings.IndexByte(why, ','); i >= 0 {
		return why[:i]
	}
	return why
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
