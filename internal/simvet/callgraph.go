package simvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An index is the module's call graph, built once per Run; it holds
// no state of the check, so runs never leak into one another. Calls
// through function values and interface methods have no static callee
// and are not followed.
type index struct {
	*Module
	funcs   []*types.Func // every declared function and method, packages in dependency order, source order within
	decls   map[*types.Func]*ast.FuncDecl
	files   map[*types.Func]*ast.File
	callees map[*types.Func][]*types.Func // distinct module-local static callees, in source order
}

// newIndex indexes every function and method of the module with its
// static callees.
func newIndex(mod *Module) *index {
	ix := &index{
		Module:  mod,
		decls:   make(map[*types.Func]*ast.FuncDecl),
		files:   make(map[*types.Func]*ast.File),
		callees: make(map[*types.Func][]*types.Func),
	}
	for _, pkg := range mod.Packages {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := mod.Info.Defs[fd.Name].(*types.Func); ok {
						ix.decls[fn], ix.files[fn] = fd, f
						ix.callees[fn] = ix.staticCallees(fd)
						ix.funcs = append(ix.funcs, fn)
					}
				}
			}
		}
	}
	return ix
}

// has reports whether fn's declaration carries the directive; an
// instance of a generic function answers for its declaration.
func (ix *index) has(fn *types.Func, directive string) bool {
	fd := ix.decls[fn.Origin()]
	return fd != nil && hasDirective(fd.Doc, directive)
}

// reportReachable walks the static call graph from every function
// carrying the root directive, in module order, and reports the findings
// of each module function reached, once, naming the first root that
// reaches it. The walk neither reports nor passes a function for which
// stop(fn) holds.
func (ix *index) reportReachable(directive string, stop func(fn *types.Func) bool, findings func(*types.Func) []finding, report reportFunc) {
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
			if seen[fn] || ix.decls[fn] == nil || stop(fn) {
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
// (//simvet:orderfree) applies to the line it shares with the
// statement or to the line directly above it (directiveAt).
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
// pkgpath.Recv.Name for methods, matching the impureReads keys.
func qualifiedName(fn *types.Func) string {
	if rt := recvType(fn); rt != nil {
		if named, ok := rt.(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}
