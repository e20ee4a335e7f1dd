package minsim_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docSymbol matches a backticked `pkg.Name` or `pkg.Type.Member`,
// optionally followed by a call's parentheses. Only exported names
// are checked, so metric names such as `engine.ns_per_cycle` pass by.
var docSymbol = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Z][A-Za-z0-9_]*)(?:\\.([A-Za-z_][A-Za-z0-9_]*))?(?:\\([^`]*\\))?`")

// TestDocSymbolsResolve holds the prose to the code: every backticked
// `pkg.Name` or `pkg.Type.Member` in the docs whose pkg names an
// internal/ package must name a declaration of that package.
// `pkg.Name` is a package-level identifier, or a method or field of
// some type in the package (shorthand such as `xrand.Intn`);
// `pkg.Type.Member` is a method or field of that type.
func TestDocSymbolsResolve(t *testing.T) {
	pkgs := internalDecls(t)
	checked := 0
	forEachDocLine(t, func(at, line string) {
		for _, m := range docSymbol.FindAllStringSubmatch(line, -1) {
			d, ok := pkgs[m[1]]
			if !ok {
				continue // a standard-library or other outside name
			}
			checked++
			if !d.resolves(m[2], m[3]) {
				t.Errorf("%s: %s names nothing in package %s", at, m[0], m[1])
			}
		}
	})
	if checked == 0 {
		t.Fatal("no doc symbols found; is the pattern stale?")
	}
}

// docCommand matches a command path, cmd/<name>.
var docCommand = regexp.MustCompile(`\bcmd/([a-z][a-z0-9]*)`)

// TestDocCommandsExist: every cmd/<name> the docs mention is a command
// of the module, so a merged or deleted binary cannot linger in them.
func TestDocCommandsExist(t *testing.T) {
	checked := 0
	forEachDocLine(t, func(at, line string) {
		for _, m := range docCommand.FindAllStringSubmatch(line, -1) {
			checked++
			if st, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !st.IsDir() {
				t.Errorf("%s: %s is not a command directory", at, m[0])
			}
		}
	})
	if checked == 0 {
		t.Fatal("no command paths found; is the pattern stale?")
	}
}

// docSimvetFlags captures the flags that follow a simvet command.
var docSimvetFlags = regexp.MustCompile(`\bsimvet((?:\s+-[a-z][a-z0-9-]*)+)`)

// TestDocSimvetFlags: a simvet command in the docs passes no flag but
// -json, the one it has, so a deleted flag cannot linger in them.
func TestDocSimvetFlags(t *testing.T) {
	checked := 0
	forEachDocLine(t, func(at, line string) {
		for _, m := range docSimvetFlags.FindAllStringSubmatch(line, -1) {
			for _, flag := range strings.Fields(m[1]) {
				checked++
				if flag != "-json" {
					t.Errorf("%s: simvet %s; its one flag is -json", at, flag)
				}
			}
		}
	})
	if checked == 0 {
		t.Fatal("no simvet flags found; is the pattern stale?")
	}
}

// forEachDocLine calls f with each line of README.md, DESIGN.md,
// EXPERIMENTS.md and docs/*.md and its file:line position.
func forEachDocLine(t *testing.T, f func(at, line string)) {
	t.Helper()
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, docs...) {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			f(fmt.Sprintf("%s:%d", doc, i+1), line)
		}
	}
}

// pkgDecls is what a package declares, by name.
type pkgDecls struct {
	top     map[string]bool            // package-level identifiers
	members map[string]map[string]bool // type -> its methods and fields
	any     map[string]bool            // every method and field of every type
}

func (d *pkgDecls) resolves(name, member string) bool {
	if member == "" {
		return d.top[name] || d.any[name]
	}
	return d.members[name][member]
}

func (d *pkgDecls) addMember(typ, name string) {
	if d.members[typ] == nil {
		d.members[typ] = map[string]bool{}
	}
	d.members[typ][name] = true
	d.any[name] = true
}

// internalDecls parses the non-test files of every package under
// internal/ (testdata excluded) and indexes them by package name.
func internalDecls(t *testing.T) map[string]*pkgDecls {
	t.Helper()
	out := map[string]*pkgDecls{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if e.Name() == "testdata" {
			return filepath.SkipDir
		}
		parsed, err := parser.ParseDir(fset, path, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for name, p := range parsed {
			if out[name] != nil {
				t.Fatalf("two internal packages named %s", name)
			}
			d := &pkgDecls{top: map[string]bool{}, members: map[string]map[string]bool{}, any: map[string]bool{}}
			for _, f := range p.Files {
				indexFile(d, f)
			}
			out[name] = d
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func indexFile(d *pkgDecls, f *ast.File) {
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				d.top[decl.Name.Name] = true
				continue
			}
			typ := decl.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			if id, ok := typ.(*ast.Ident); ok {
				d.addMember(id.Name, decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						d.top[n.Name] = true
					}
				case *ast.TypeSpec:
					d.top[spec.Name.Name] = true
					var fields *ast.FieldList
					switch tt := spec.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields
					case *ast.InterfaceType:
						fields = tt.Methods
					}
					if fields == nil {
						continue
					}
					for _, fld := range fields.List {
						for _, n := range fld.Names {
							d.addMember(spec.Name.Name, n.Name)
						}
					}
				}
			}
		}
	}
}
