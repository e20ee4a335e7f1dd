package simvet

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// keypurity must fire on its seeded-violation fixture and stay quiet
// on the fixture's legitimate patterns. The fixture is a
// multi-package module whose violations cross package boundaries.
func TestKeyPurityFixture(t *testing.T) { runFixture(t, "keypurity") }

// TestRepoInvariantsClean runs keypurity over the real module —
// the same gate as `go run ./cmd/simvet ./...` and the simvet CI job,
// enforced from `go test ./...` as well so the invariants hold even
// where only the tier-1 command runs.
func TestRepoInvariantsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module (plus stdlib from source); skipped in -short")
	}
	mod, err := LoadModule("../..")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, d := range Run(mod) {
		t.Errorf("%s", d)
	}
}

// directives are the //simvet: directives keypurity reads.
var directives = []string{"orderfree", "keypath", "keypure"}

// TestDirectivesSpelled scans every comment of the module's Go files,
// tests and fixtures included, and fails on one that starts with
// //simvet: but names none of the directives: a misspelled
// //simvet:keypath would silently drop that root from checking.
func TestDirectivesSpelled(t *testing.T) {
	nameRe := regexp.MustCompile(`^//simvet:(\w*)`)
	fset := token.NewFileSet()
	err := filepath.WalkDir("../..", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "../.." && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, g := range f.Comments {
			for _, c := range g.List {
				if m := nameRe.FindStringSubmatch(c.Text); m != nil && !slices.Contains(directives, m[1]) {
					t.Errorf("%s: unknown directive %q; keypurity reads //simvet: %s", fset.Position(c.Slash), m[0], strings.Join(directives, ", "))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
