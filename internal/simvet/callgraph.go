package simvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An index is the module's call graph, built once per RunAnalyzers
// and read by every analyzer of that run; it holds no analyzer state,
// so runs never leak into one another. Calls through function values
// and interface methods have no static callee and are not followed;
// where that matters (an io.Writer that might block) the analyzers
// classify the call site itself instead.
type index struct {
	*Module
	funcs   []*types.Func // every declared function and method, packages in dependency order, source order within
	decls   map[*types.Func]*ast.FuncDecl
	files   map[*types.Func]*ast.File
	callees map[*types.Func][]*types.Func     // distinct module-local static callees, in source order
	docs    map[*types.Func]*ast.CommentGroup // of every declared function and interface method
	blocks  map[*types.Func]string            // why calling the function may block; absent if it cannot
}

// newIndex indexes every function and interface method of the module,
// then summarizes blocking package by package in dependency order.
func newIndex(mod *Module) *index {
	ix := &index{
		Module:  mod,
		decls:   make(map[*types.Func]*ast.FuncDecl),
		files:   make(map[*types.Func]*ast.File),
		callees: make(map[*types.Func][]*types.Func),
		docs:    make(map[*types.Func]*ast.CommentGroup),
		blocks:  make(map[*types.Func]string),
	}
	var byPkg [][]*types.Func
	for _, pkg := range mod.Packages {
		var fns []*types.Func
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if fn, ok := mod.Info.Defs[n.Name].(*types.Func); ok {
						ix.decls[fn], ix.files[fn], ix.docs[fn] = n, f, n.Doc
						fns = append(fns, fn)
					}
					return false // an interface local to a function body is not indexed
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, name := range m.Names {
							if fn, ok := mod.Info.Defs[name].(*types.Func); ok {
								ix.docs[fn] = m.Doc
							}
						}
					}
				}
				return true
			})
		}
		byPkg = append(byPkg, fns)
		ix.funcs = append(ix.funcs, fns...)
	}
	for _, fns := range byPkg {
		ix.summarizeBlocking(fns)
	}
	return ix
}

// has reports whether fn's declaration (a function, method or
// interface method anywhere in the module) carries the directive; an
// instance of a generic function answers for its declaration.
func (ix *index) has(fn *types.Func, directive string) bool {
	return hasDirective(ix.docs[fn.Origin()], directive)
}

// reportReachable walks the static call graph from every function
// carrying the root directive, in module order, and reports the findings
// of each module function reached, once, naming the first root that
// reaches it. The walk neither reports nor passes a function for which
// stop(root, fn) holds.
func (ix *index) reportReachable(directive string, stop func(root, fn *types.Func) bool, findings func(*types.Func) []finding, report reportFunc) {
	reported := map[*types.Func]bool{}
	for _, root := range ix.funcs {
		if !ix.has(root, directive) {
			continue
		}
		queue := []*types.Func{root}
		seen := map[*types.Func]bool{}
		for len(queue) > 0 {
			fn := queue[0]
			queue = queue[1:]
			if seen[fn] || ix.decls[fn] == nil || stop(root, fn) {
				continue
			}
			seen[fn] = true
			if !reported[fn] {
				reported[fn] = true
				for _, f := range findings(fn) {
					report(ix.Fset.Position(f.pos), "%s (reachable from //%s root %s)", f.msg, directive, root.Name())
				}
			}
			queue = append(queue, ix.callees[fn]...)
		}
	}
}

// A finding is one violation in a function body, reported only if the
// function is reachable from a root.
type finding struct {
	pos token.Pos
	msg string
}

// staticCallees lists the distinct module-local static callees of
// fd's body in source order.
func (ix *index) staticCallees(fd *ast.FuncDecl) []*types.Func {
	if fd.Body == nil {
		return nil
	}
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(ix.Info, call); fn != nil && !seen[fn] && ix.declares(fn) {
				seen[fn] = true
				out = append(out, fn)
			}
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

// stmtDirectives returns the line numbers of every comment in f that
// carries the given //simvet: directive. A statement-level directive
// (//simvet:orderfree, bounded, blockok) applies to the line it shares
// with the statement or to the line directly above it (directiveAt).
func (ix *index) stmtDirectives(f *ast.File, directive string) map[int]bool {
	var lines map[int]bool
	for _, g := range f.Comments {
		for _, c := range g.List {
			if strings.HasPrefix(c.Text, "//"+directive) {
				if lines == nil {
					lines = make(map[int]bool)
				}
				lines[ix.Fset.Position(c.Slash).Line] = true
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
// //simvet:blocking), and why says why. Module-local static callees
// are not classified here; their blocking summaries are.
func (ix *index) blockingCall(call *ast.CallExpr) (why string, ok bool) {
	fn := calleeFunc(ix.Info, call)
	if fn == nil {
		// Function value or interface method without type info.
		if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
			if s := ix.Info.Selections[sel]; s != nil {
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
	if ix.declares(fn) {
		if isInterfaceRecv(fn) && ix.has(fn, "simvet:blocking") {
			return "interface " + fn.Name() + " call, annotated //simvet:blocking", true
		}
		return "", false
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
// library calls, interface I/O calls, and — when viaCallees is set —
// calls to module-local functions whose summary says they block.
// Goroutine launches and function literals are skipped: their bodies
// do not run on the caller's stack.
func (ix *index) scanBlockingOps(root ast.Node, viaCallees bool) []blockHit {
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
				if t := ix.Info.Types[n.X].Type; t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						hits = append(hits, blockHit{n.Pos(), "range over channel"})
					}
				}
			case *ast.CallExpr:
				if why, ok := ix.blockingCall(n); ok {
					hits = append(hits, blockHit{n.Pos(), why})
				} else if fn := calleeFunc(ix.Info, n); viaCallees && fn != nil && ix.blocks[fn] != "" {
					hits = append(hits, blockHit{n.Pos(), "calls " + fn.Name() + ", which " + headline(ix.blocks[fn])})
				}
			}
			return true
		})
	}
	scan(root)
	return hits
}

// summarizeBlocking decides, for one package's functions, whether
// calling each may block, and why. A function blocks if it is
// annotated //simvet:blocking, contains a direct blocking operation,
// or calls (transitively, to a fixpoint — recursion is safe) a
// function that blocks. Packages are summarized in dependency order,
// so a callee in an imported package is already final.
func (ix *index) summarizeBlocking(fns []*types.Func) {
	for _, fn := range fns {
		fd := ix.decls[fn]
		ix.callees[fn] = ix.staticCallees(fd)
		if hasDirective(fd.Doc, "simvet:blocking") {
			ix.blocks[fn] = "is annotated //simvet:blocking"
		} else if fd.Body != nil {
			if hits := ix.scanBlockingOps(fd.Body, false); len(hits) > 0 {
				ix.blocks[fn] = hits[0].why
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if ix.blocks[fn] != "" {
				continue
			}
			for _, c := range ix.callees[fn] {
				if w := ix.blocks[c]; w != "" {
					ix.blocks[fn] = "calls " + c.Name() + ", which " + headline(w)
					changed = true
					break
				}
			}
		}
	}
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
