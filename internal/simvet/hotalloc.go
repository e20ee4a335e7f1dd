package simvet

import (
	"go/ast"
	"go/types"
)

// HotAlloc guards the engine's zero-allocation steady-state contract.
// Functions whose doc comment carries //simvet:hotpath are hot-path
// roots (Engine.Step and the per-cycle Run loops); hotalloc walks the
// static call graph within the package from those roots and flags, in
// every reachable function body:
//
//   - fmt formatting calls (Sprintf and friends) — each one allocates
//     its result and boxes its operands;
//   - function literals — captured variables escape to the heap;
//   - make and new — a fresh allocation per call; steady-state state
//     must be pooled on the Engine and reused;
//   - append onto a guaranteed-fresh slice (nil, a literal, or a call
//     result) — amortized append onto a pooled slice is fine, append
//     onto a fresh one allocates every time;
//   - implicit boxing: passing a non-pointer concrete value where an
//     interface is expected (pointers fit in the interface word and
//     are exempt).
//
// Arguments of panic calls are exempt: invariant-violation messages
// never execute in a correct steady state, so fmt.Sprintf inside
// panic(...) costs nothing. Calls that leave the package (including
// interface-method calls such as engine.Source.Next) are checked at
// their own package's roots, not followed — the analysis is
// per-package, like go vet's unit model.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid heap allocations in functions reachable from //simvet:hotpath roots (the zero-alloc Step contract)",
	Run:  runHotAlloc,
}

// allocatingFmt lists fmt functions that allocate on every call.
var allocatingFmt = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Errorf": true, "Printf": true, "Print": true, "Println": true,
	"Fprintf": true, "Fprint": true, "Fprintln": true,
	"Appendf": true, "Append": true, "Appendln": true,
}

func runHotAlloc(pass *Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	// Map every package-level function object to its declaration and
	// collect the annotated roots.
	decls := make(map[*types.Func]*ast.FuncDecl)
	var roots []*types.Func
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[fn] = fd
			if hasDirective(fd.Doc, "simvet:hotpath") {
				roots = append(roots, fn)
			}
		}
	}
	if len(roots) == 0 {
		return nil
	}

	// Breadth-first reachability over same-package static calls.
	reachable := make(map[*types.Func]bool)
	queue := roots
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if reachable[fn] {
			continue
		}
		reachable[fn] = true
		fd := decls[fn]
		if fd == nil || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := calleeFunc(pass.Info, call); callee != nil && decls[callee] != nil {
				queue = append(queue, callee)
			}
			return true
		})
	}

	for fn := range reachable {
		fd := decls[fn]
		if fd == nil || fd.Body == nil {
			continue
		}
		checkHotBody(pass, fd)
	}
	return nil
}

// checkHotBody reports every allocating construct in one hot function.
func checkHotBody(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure literal in hot-path function %s: captured variables escape to the heap; hoist reusable state onto the Engine", fd.Name.Name)
			return false
		case *ast.CallExpr:
			return checkHotCall(pass, fd, n)
		}
		return true
	})
}

// checkHotCall inspects one call in a hot body. It returns false to
// prune traversal into panic arguments (error paths are exempt).
func checkHotCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "panic":
				return false // invariant-violation path, never runs in steady state
			case "make", "new":
				pass.Reportf(call.Pos(), "%s in hot-path function %s allocates every call; pre-size in New/grow and reuse", b.Name(), fd.Name.Name)
			case "append":
				if len(call.Args) > 0 && isFreshSlice(call.Args[0]) {
					pass.Reportf(call.Pos(), "append onto a fresh slice in hot-path function %s allocates every call; append onto a pooled engine slice instead", fd.Name.Name)
				}
			}
			return true
		}
		// Conversion to an interface type boxes the operand.
		if tv, ok := pass.Info.Types[id]; ok && tv.IsType() {
			reportBox(pass, fd, call.Args, tv.Type)
			return true
		}
	}
	if fn := calleeFunc(pass.Info, call); fn != nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && allocatingFmt[fn.Name()] {
			pass.Reportf(call.Pos(), "fmt.%s in hot-path function %s allocates its result and boxes its operands; only panic messages may format on the hot path", fn.Name(), fd.Name.Name)
			return true // operands are already covered by this report
		}
		if sig, ok := fn.Type().(*types.Signature); ok {
			checkBoxedArgs(pass, fd, call, sig)
		}
	}
	return true
}

// isFreshSlice reports whether the expression is a guaranteed-fresh
// slice: nil, a composite literal, or a call result (e.g. a conversion
// or make).
func isFreshSlice(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit, *ast.CallExpr:
		return true
	case *ast.Ident:
		return e.Name == "nil"
	}
	return false
}

// checkBoxedArgs flags non-pointer concrete arguments passed to
// interface parameters: the implicit conversion heap-allocates the
// value (pointers are stored in the interface word directly).
func checkBoxedArgs(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic():
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type() // []T passed whole, no boxing
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		}
		if pt == nil {
			continue
		}
		reportBox(pass, fd, []ast.Expr{arg}, pt)
	}
}

// reportBox reports each arg whose conversion to target would box a
// non-pointer concrete value.
func reportBox(pass *Pass, fd *ast.FuncDecl, args []ast.Expr, target types.Type) {
	if !types.IsInterface(target) {
		return
	}
	for _, arg := range args {
		tv, ok := pass.Info.Types[arg]
		if !ok || tv.Type == nil || tv.Value != nil {
			continue // untyped or constant: boxed from static data, no allocation
		}
		t := tv.Type
		if types.IsInterface(t) {
			continue
		}
		switch u := t.Underlying().(type) {
		case *types.Pointer, *types.Signature, *types.Map, *types.Chan:
			continue // pointer-shaped: stored in the interface word directly
		case *types.Basic:
			if u.Kind() == types.UntypedNil {
				continue
			}
		}
		pass.Reportf(arg.Pos(), "value of type %s converted to interface %s in hot-path function %s: the conversion heap-allocates; pass a pointer or restructure", t, target, fd.Name.Name)
	}
}
