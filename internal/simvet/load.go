package simvet

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Module is a parsed and type-checked Go module, loaded as one
// program: every package is checked into the one shared Info, so any
// function body can be read without a package lookup. Packages are in
// dependency order (every package after the module-local packages it
// imports, ties broken by import path); test files are not loaded
// (the analyzers check production code only).
type Module struct {
	Dir      string // absolute module root
	Path     string // module path from go.mod
	Fset     *token.FileSet
	Info     *types.Info
	Packages []*Package

	byPath map[string]*Package
}

// declares reports whether obj is declared in a package of the module
// (as opposed to the standard library).
func (m *Module) declares(obj types.Object) bool {
	return obj.Pkg() != nil && m.byPath[obj.Pkg().Path()] != nil
}

// Package is one type-checked package of the module.
type Package struct {
	Path  string      // import path
	Dir   string      // absolute directory
	Files []*ast.File // non-test files, type-checked
	Types *types.Package
}

// LoadModule parses and type-checks every package under the module
// rooted at dir. Standard-library imports are type-checked from
// GOROOT source (no network, no export data), module-local imports
// are resolved within the tree; the module must be dependency-free
// beyond the standard library, which this repository is by design.
// Directories named "testdata", hidden directories and "_"-prefixed
// directories are skipped, matching the go tool.
func LoadModule(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := &Module{
		Dir:    abs,
		Path:   modPath,
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Package),
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
	}
	ld := &loader{
		mod:     mod,
		dirs:    make(map[string]string),
		loading: make(map[string]bool),
	}
	ld.std = importer.ForCompiler(mod.Fset, "source", nil)

	// Discover package directories.
	var paths []string
	err = filepath.WalkDir(abs, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != abs && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		pkgDir := filepath.Dir(p)
		if _, seen := ld.dirs[importPathFor(mod, abs, pkgDir)]; !seen {
			ld.dirs[importPathFor(mod, abs, pkgDir)] = pkgDir
			paths = append(paths, importPathFor(mod, abs, pkgDir))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	slices.Sort(paths)
	for _, ip := range paths {
		if _, err := ld.load(ip); err != nil {
			return nil, err
		}
	}
	return mod, nil
}

// importPathFor maps an absolute package directory to its import path.
func importPathFor(mod *Module, root, dir string) string {
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == "." {
		return mod.Path
	}
	return path.Join(mod.Path, filepath.ToSlash(rel))
}

// modulePath extracts the module path from a go.mod file.
func modulePath(file string) (string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return "", fmt.Errorf("simvet: module root: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("simvet: no module directive in %s", file)
}

// loader resolves imports: module-local packages from the tree,
// everything else (the standard library) from GOROOT source.
type loader struct {
	mod     *Module
	std     types.Importer
	dirs    map[string]string // import path -> directory
	loading map[string]bool   // cycle detection
}

// Import implements types.Importer.
func (l *loader) Import(importPath string) (*types.Package, error) {
	if importPath == "unsafe" {
		return types.Unsafe, nil
	}
	if importPath == l.mod.Path || strings.HasPrefix(importPath, l.mod.Path+"/") {
		pkg, err := l.load(importPath)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(importPath)
}

// load parses and type-checks one module-local package (memoized),
// after its module-local imports in import-path order, so the module's
// Packages come out in dependency order.
func (l *loader) load(importPath string) (*Package, error) {
	if pkg, ok := l.mod.byPath[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("simvet: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	dir, ok := l.dirs[importPath]
	if !ok {
		return nil, fmt.Errorf("simvet: package %s not found under %s", importPath, l.mod.Dir)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: importPath, Dir: dir}
	var deps []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(l.mod.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == l.mod.Path || strings.HasPrefix(p, l.mod.Path+"/") {
				deps = append(deps, p)
			}
		}
	}
	slices.Sort(deps)
	for _, dep := range slices.Compact(deps) {
		if _, err := l.load(dep); err != nil {
			return nil, err
		}
	}
	if len(pkg.Files) > 0 {
		conf := types.Config{Importer: l}
		tpkg, err := conf.Check(importPath, l.mod.Fset, pkg.Files, l.mod.Info)
		if err != nil {
			return nil, fmt.Errorf("simvet: type-checking %s: %w", importPath, err)
		}
		pkg.Types = tpkg
	}
	l.mod.byPath[importPath] = pkg
	l.mod.Packages = append(l.mod.Packages, pkg)
	return pkg, nil
}
