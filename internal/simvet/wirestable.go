package simvet

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

// WireStable locks the simulator's externally visible data shapes. A
// struct or string constant annotated //simvet:wire is wire format —
// the simd HTTP request/response bodies, job snapshots, the simrun
// progress counters, the cache-entry layout on disk, the metrics CSV
// header. The analyzer derives a canonical schema for each (field
// names in declaration order, effective json tags, fully qualified
// field types, const values) and diffs the module's schema against the
// committed docs/wire.lock golden.
// An accidental rename, tag edit, type change or field reorder fails
// CI with the differing entry; an intentional change regenerates the
// lock with `go run ./cmd/simvet -writewire`, which makes the wire
// break visible in review as a lock-file diff. This is the contract a
// future coordinator/worker fleet protocol extends.
//
// Every module-local named struct referenced by a wire struct's fields
// must itself be annotated //simvet:wire: the wire surface is closed
// under reachability, and the analyzer insists the closure be written
// down rather than inferred.
var WireStable = &Analyzer{
	Name: "wirestable",
	Doc:  "lock the schema of //simvet:wire structs and constants against docs/wire.lock (the simd HTTP, cache-file and CSV formats)",
	run:  func(ix *index, report reportFunc) { wireStable(ix.Module, report) },
}

// WireLockFile is the lock's module-relative path, for cmd/simvet.
const WireLockFile = "docs/wire.lock"

// wireEntry is one wire declaration: its canonical schema block and
// where it was declared.
type wireEntry struct {
	Kind string // "type" or "const"
	Name string // fully qualified: pkgpath.Ident
	Body []string
	Pos  token.Pos
}

// wireStable derives the schema of every //simvet:wire declaration,
// reports a non-struct, non-string or unclosed declaration and any
// drift from docs/wire.lock, and returns the entries in lock order
// (kind, then name).
func wireStable(mod *Module, report reportFunc) []*wireEntry {
	reportf := func(pos token.Pos, format string, args ...any) {
		report(mod.Fset.Position(pos), format, args...)
	}
	// Collect every annotated object before checking references, so a
	// field may name a wire struct declared anywhere in the module.
	annotated := make(map[types.Object]bool)
	var objs []types.Object
	for _, pkg := range mod.Packages {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				groupWire := hasDirective(gd.Doc, "simvet:wire")
				for _, spec := range gd.Specs {
					var names []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if groupWire || hasDirective(s.Doc, "simvet:wire") || hasDirective(s.Comment, "simvet:wire") {
							names = []*ast.Ident{s.Name}
						}
					case *ast.ValueSpec:
						if gd.Tok == token.CONST && (groupWire || hasDirective(s.Doc, "simvet:wire") || hasDirective(s.Comment, "simvet:wire")) {
							names = s.Names
						}
					}
					for _, name := range names {
						if obj := mod.Info.Defs[name]; obj != nil {
							annotated[obj] = true
							objs = append(objs, obj)
						}
					}
				}
			}
		}
	}

	var entries []*wireEntry
	for _, obj := range objs {
		switch obj := obj.(type) {
		case *types.TypeName:
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				reportf(obj.Pos(), "//simvet:wire on %s, which is not a struct type; only structs and string constants carry a wire schema", obj.Name())
				continue
			}
			entry := &wireEntry{
				Kind: "type",
				Name: obj.Pkg().Path() + "." + obj.Name(),
				Pos:  obj.Pos(),
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				entry.Body = append(entry.Body, wireFieldLine(f, st.Tag(i)))
				checkWireRefs(mod, reportf, annotated, obj, f, f.Type(), nil)
			}
			entries = append(entries, entry)
		case *types.Const:
			if b, ok := obj.Type().Underlying().(*types.Basic); !ok || b.Info()&types.IsString == 0 {
				reportf(obj.Pos(), "//simvet:wire on non-string constant %s; only structs and string constants carry a wire schema", obj.Name())
				continue
			}
			entries = append(entries, &wireEntry{
				Kind: "const",
				Name: obj.Pkg().Path() + "." + obj.Name(),
				Body: []string{fmt.Sprintf("%q", constant.StringVal(obj.Val()))},
				Pos:  obj.Pos(),
			})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Kind != entries[j].Kind {
			return entries[i].Kind < entries[j].Kind
		}
		return entries[i].Name < entries[j].Name
	})

	lockPath := filepath.Join(mod.Dir, filepath.FromSlash(WireLockFile))
	reportAtLock := func(line int, format string, args ...any) {
		report(token.Position{Filename: lockPath, Line: line}, format, args...)
	}
	data, err := os.ReadFile(lockPath)
	if err != nil {
		if len(entries) > 0 {
			reportAtLock(1, "%s missing but the module declares %d //simvet:wire schema(s); generate it with: go run ./cmd/simvet -writewire", WireLockFile, len(entries))
		}
		return entries // no wire surface and no lock is clean
	}
	committed, lockLines := parseWireLock(string(data))
	current := make(map[string]*wireEntry, len(entries))
	for _, e := range entries {
		key := e.Kind + " " + e.Name
		current[key] = e
		want, ok := committed[key]
		if !ok {
			reportf(e.Pos, "%s %s is //simvet:wire but absent from %s; regenerate the lock with: go run ./cmd/simvet -writewire", e.Kind, e.Name, WireLockFile)
			continue
		}
		if d := firstSchemaDiff(want, e.Body); d != "" {
			reportf(e.Pos, "wire schema of %s drifted from %s (%s); if the wire change is intentional, regenerate with: go run ./cmd/simvet -writewire", e.Name, WireLockFile, d)
		}
	}
	var removed []string
	for key := range committed {
		if current[key] == nil {
			removed = append(removed, key)
		}
	}
	sort.Strings(removed)
	for _, key := range removed {
		reportAtLock(lockLines[key], "%s is locked in %s but no longer declared //simvet:wire; restore the annotation or regenerate the lock with: go run ./cmd/simvet -writewire", key, WireLockFile)
	}
	return entries
}

// wireFieldLine renders one struct field canonically: name, fully
// qualified type, and the effective encoding/json key with options.
func wireFieldLine(f *types.Var, tag string) string {
	jsonTag := reflect.StructTag(tag).Get("json")
	name, opts, _ := strings.Cut(jsonTag, ",")
	switch {
	case name == "" && !f.Exported():
		name = "-" // encoding/json skips unexported fields
	case name == "":
		name = f.Name()
	}
	eff := name
	if opts != "" {
		eff += "," + opts
	}
	return fmt.Sprintf("%s %s json:%q", f.Name(), types.TypeString(f.Type(), nil), eff)
}

// checkWireRefs requires every module-local named struct reachable
// through a wire field's type to be //simvet:wire itself: the wire
// surface must be annotated shut, not discovered.
func checkWireRefs(mod *Module, reportf func(token.Pos, string, ...any), annotated map[types.Object]bool, owner *types.TypeName, f *types.Var, t types.Type, seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if _, isStruct := named.Underlying().(*types.Struct); isStruct && obj != owner && mod.declares(obj) {
			if !annotated[obj] {
				reportf(f.Pos(), "wire struct %s field %s references %s.%s, which is not annotated //simvet:wire; the wire surface must be closed under annotation", owner.Name(), f.Name(), obj.Pkg().Path(), obj.Name())
			}
			return // its own fields are checked at its own declaration
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		checkWireRefs(mod, reportf, annotated, owner, f, u.Elem(), seen)
	case *types.Slice:
		checkWireRefs(mod, reportf, annotated, owner, f, u.Elem(), seen)
	case *types.Array:
		checkWireRefs(mod, reportf, annotated, owner, f, u.Elem(), seen)
	case *types.Map:
		checkWireRefs(mod, reportf, annotated, owner, f, u.Key(), seen)
		checkWireRefs(mod, reportf, annotated, owner, f, u.Elem(), seen)
	}
}

// renderWireLock produces the lock-file text: a comment header, then
// one block per entry, tab-indented bodies, sorted, byte-stable.
func renderWireLock(entries []*wireEntry) string {
	var b strings.Builder
	b.WriteString("# simvet wire.lock — canonical schema of every //simvet:wire declaration:\n")
	b.WriteString("# the simd HTTP API, cache-file and CSV wire formats. CI fails when the\n")
	b.WriteString("# code drifts from this file. After an INTENTIONAL wire change, regenerate\n")
	b.WriteString("# with: go run ./cmd/simvet -writewire\n")
	for _, e := range entries {
		b.WriteString("\n")
		b.WriteString(e.Kind + " " + e.Name + "\n")
		for _, line := range e.Body {
			b.WriteString("\t" + line + "\n")
		}
	}
	return b.String()
}

// WireLockText derives the module's current wire.lock content. Used by
// `cmd/simvet -writewire` and by the byte-stability test; diagnostics
// from the derivation are ignored here — the full analyzer run
// reports them.
func WireLockText(mod *Module) (string, error) {
	if len(mod.Packages) == 0 {
		return "", fmt.Errorf("wirestable: empty module")
	}
	return renderWireLock(wireStable(mod, func(token.Position, string, ...any) {})), nil
}

// parseWireLock reads a lock file into entry bodies keyed by header
// ("type pkg.Name" / "const pkg.Name") plus each header's line number.
func parseWireLock(text string) (map[string][]string, map[string]int) {
	bodies := make(map[string][]string)
	lines := make(map[string]int)
	var cur string
	for i, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "#") || strings.TrimSpace(line) == "":
			continue
		case strings.HasPrefix(line, "\t"):
			if cur != "" {
				bodies[cur] = append(bodies[cur], strings.TrimPrefix(line, "\t"))
			}
		default:
			cur = line
			if _, dup := bodies[cur]; !dup {
				bodies[cur] = nil
				lines[cur] = i + 1
			}
		}
	}
	return bodies, lines
}

// firstSchemaDiff describes the first difference between a committed
// and a derived schema body, or "" if identical.
func firstSchemaDiff(want, got []string) string {
	for i := 0; i < len(want) || i < len(got); i++ {
		switch {
		case i >= len(want):
			return fmt.Sprintf("field added: %s", got[i])
		case i >= len(got):
			return fmt.Sprintf("field removed: %s", want[i])
		case want[i] != got[i]:
			return fmt.Sprintf("locked %q, code has %q", want[i], got[i])
		}
	}
	return ""
}
