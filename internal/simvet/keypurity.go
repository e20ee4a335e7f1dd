package simvet

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// KeyPurity guards the content-addressed cache key: everything
// reachable from a //simvet:keypath root (RunSpec canonicalization and
// the engine fingerprint probe in internal/simrun) must be a pure,
// canonical function of its inputs. A cache key that depends on
// process state serves stale results under a fresh binary — or misses
// forever — and both failure modes are silent. In every function
// reachable from a keypath root, in any package, the analyzer flags:
//
//   - map iteration — Go randomizes the order, so hashed bytes differ
//     run to run (annotate //simvet:orderfree if the body provably
//     commutes, e.g. collecting keys to sort);
//   - %v, %+v and %#v on floats, maps, pointers, channels, funcs or
//     interfaces, %p anywhere, and non-constant format strings — the
//     default verbs are not a canonical encoding (floats must be
//     hashed by bit pattern, pointers never);
//   - JSON encoding of map- or interface-bearing values — key bytes
//     must be visibly canonical, not delegated to encoder internals;
//   - process-state reads: env, hostname, pid, wall-clock time, CPU
//     count and friends.
//
// Functions audited by hand opt out with //simvet:keypure (treated as
// pure leaves). fmt.Errorf is exempt: error paths are never hashed.
// Only static calls are followed; calls through function values and
// interface methods are outside the key path by construction (the key
// helpers take concrete types).
var KeyPurity = &Analyzer{
	Name: "keypurity",
	Doc:  "forbid process-state dependence (map order, %v on floats/pointers, env/time reads) in code reachable from //simvet:keypath roots",
	run:  runKeyPurity,
}

// impureReads maps fully qualified functions whose result is process
// state, not input, to the state they read.
var impureReads = map[string]string{
	"os.Getenv":            "the environment",
	"os.LookupEnv":         "the environment",
	"os.Environ":           "the environment",
	"os.Hostname":          "the hostname",
	"os.Getpid":            "the process id",
	"os.Getwd":             "the working directory",
	"os.UserHomeDir":       "the home directory",
	"os.TempDir":           "the temp directory",
	"os.UserCacheDir":      "the cache directory",
	"os.UserConfigDir":     "the config directory",
	"time.Now":             "the wall clock",
	"time.Since":           "the wall clock",
	"time.Until":           "the wall clock",
	"runtime.NumCPU":       "the CPU count",
	"runtime.GOMAXPROCS":   "the scheduler width",
	"runtime.NumGoroutine": "the goroutine count",
	"os/user.Current":      "the current user",
}

// fmtFormatFuncs maps fmt functions taking a format string to the
// index of that format argument.
var fmtFormatFuncs = map[string]int{
	"Sprintf": 0, "Printf": 0, "Fprintf": 1, "Appendf": 1,
}

// fmtPrintFuncs maps fmt functions that format every operand with an
// implicit %v to the index of the first operand.
var fmtPrintFuncs = map[string]int{
	"Sprint": 0, "Sprintln": 0, "Print": 0, "Println": 0,
	"Fprint": 1, "Fprintln": 1, "Append": 1, "Appendln": 1,
}

// runKeyPurity reports every impurity reachable from a keypath root.
// An audited //simvet:keypure function is a pure leaf: neither its
// body nor its callees are checked.
func runKeyPurity(ix *index, report reportFunc) {
	keypure := func(fn *types.Func) bool { return ix.has(fn, "simvet:keypure") }
	ix.reportReachable("simvet:keypath", keypure, func(fn *types.Func) []finding { return keyFindings(ix, fn) }, report)
}

// keyFindings scans one function body for impurities.
func keyFindings(ix *index, fn *types.Func) []finding {
	fd := ix.decls[fn]
	if fd.Body == nil {
		return nil
	}
	orderfree := ix.stmtDirectives(ix.files[fn], "simvet:orderfree")
	var findings []finding
	add := func(pos token.Pos, msg string) {
		findings = append(findings, finding{pos, msg})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			t := ix.Info.Types[n.X].Type
			if t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					if !directiveAt(orderfree, ix.Fset.Position(n.Pos()).Line) {
						add(n.Pos(), "map iteration in key-derivation code: Go randomizes the order, so derived bytes differ run to run; collect and sort the keys first")
					}
				}
			}
		case *ast.CallExpr:
			checkKeyCall(ix.Info, n, add)
		}
		return true
	})
	return findings
}

// checkKeyCall classifies one call in key-derivation code.
func checkKeyCall(info *types.Info, call *ast.CallExpr, add func(token.Pos, string)) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if state, bad := impureReads[qualifiedName(fn)]; bad {
		add(call.Pos(), "reads "+state+" ("+qualifiedName(fn)+") in key-derivation code; a cache key must be a pure function of the spec")
		return
	}
	switch fn.Pkg().Path() {
	case "fmt":
		if fn.Name() == "Errorf" {
			return // error paths are never hashed
		}
		if fi, ok := fmtFormatFuncs[fn.Name()]; ok {
			checkFormatCall(info, call, fi, add)
		} else if oi, ok := fmtPrintFuncs[fn.Name()]; ok {
			for _, arg := range call.Args[min(oi, len(call.Args)):] {
				checkVerbV(info, arg, fn.Name(), add)
			}
		}
	case "encoding/json":
		if fn.Name() == "Marshal" || fn.Name() == "MarshalIndent" {
			for _, arg := range call.Args[:1] {
				if t := info.Types[arg].Type; t != nil && hasDynamicEncoding(t, nil) {
					add(arg.Pos(), "JSON-encoding a map- or interface-bearing value ("+t.String()+") in key-derivation code; encode fields explicitly in a fixed order so the key bytes are visibly canonical")
				}
			}
		}
	case "math/rand", "math/rand/v2", "crypto/rand":
		add(call.Pos(), "randomness ("+qualifiedName(fn)+") in key-derivation code; a cache key must be a pure function of the spec")
	}
}

// checkFormatCall validates a Printf-style call: constant format, no
// %p, and no %v/%+v/%#v applied to a non-canonical operand.
func checkFormatCall(info *types.Info, call *ast.CallExpr, formatIdx int, add func(token.Pos, string)) {
	if len(call.Args) <= formatIdx {
		return
	}
	farg := call.Args[formatIdx]
	tv := info.Types[farg]
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		add(farg.Pos(), "non-constant format string in key-derivation code; the encoding must be auditable at the call site")
		return
	}
	format := constant.StringVal(tv.Value)
	operands := call.Args[formatIdx+1:]
	oi := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		// Scan flags ('+', '#', ' ', '-', '0') then the verb rune.
		j := i + 1
		for j < len(format) && strings.ContainsRune("+#- 0123456789.", rune(format[j])) {
			j++
		}
		if j >= len(format) {
			break
		}
		verb := format[j]
		i = j
		if verb == '%' {
			continue
		}
		var operand ast.Expr
		if oi < len(operands) {
			operand = operands[oi]
		}
		oi++
		switch verb {
		case 'p':
			add(farg.Pos(), "%p in key-derivation code: addresses differ every run; hash the pointed-to value instead")
		case 'v':
			if operand != nil {
				checkVerbV(info, operand, "%v", add)
			}
		}
	}
}

// checkVerbV flags an operand formatted with (explicit or implicit)
// %v whose type has no canonical default encoding.
func checkVerbV(info *types.Info, arg ast.Expr, via string, add func(token.Pos, string)) {
	tv := info.Types[arg]
	if tv.Type == nil || tv.Value != nil {
		return // constants format from static data
	}
	if bad, kind := nonCanonicalVerbV(tv.Type, nil); bad {
		add(arg.Pos(), via+" on "+tv.Type.String()+" in key-derivation code: "+kind+"; encode canonically (floats by bit pattern, maps by sorted keys, never pointers)")
	}
}

// nonCanonicalVerbV reports whether %v on a value of type t is an
// unacceptable key encoding, and which component makes it so. Bools,
// integers and strings are canonical; floats, complexes, maps,
// pointers, chans, funcs and interfaces are not; structs, arrays and
// slices recurse.
func nonCanonicalVerbV(t types.Type, seen map[types.Type]bool) (bool, string) {
	if seen[t] {
		return false, ""
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch {
		case u.Info()&types.IsFloat != 0, u.Info()&types.IsComplex != 0:
			return true, "default float formatting is not a stable key encoding"
		case u.Kind() == types.UnsafePointer:
			return true, "addresses differ every run"
		}
	case *types.Map:
		return true, "map formatting depends on iteration internals"
	case *types.Pointer, *types.Chan, *types.Signature:
		return true, "addresses differ every run"
	case *types.Interface:
		return true, "the dynamic type is unknown"
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if bad, kind := nonCanonicalVerbV(f.Type(), seen); bad {
				return true, "field " + f.Name() + ": " + kind
			}
		}
	case *types.Slice:
		return nonCanonicalVerbV(u.Elem(), seen)
	case *types.Array:
		return nonCanonicalVerbV(u.Elem(), seen)
	}
	return false, ""
}

// hasDynamicEncoding reports whether t contains a map or interface
// anywhere, making its JSON encoding depend on encoder internals or
// dynamic types rather than on visible declaration order.
func hasDynamicEncoding(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Map, *types.Interface:
		return true
	case *types.Pointer:
		return hasDynamicEncoding(u.Elem(), seen)
	case *types.Slice:
		return hasDynamicEncoding(u.Elem(), seen)
	case *types.Array:
		return hasDynamicEncoding(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if hasDynamicEncoding(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}
