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

// Each analyzer must fire on its seeded-violation fixture and stay
// quiet on the fixture's legitimate patterns. Each fixture is a
// multi-package module whose violations cross package boundaries.

func TestKeyPurityFixture(t *testing.T) { runFixture(t, "keypurity", KeyPurity) }

func TestWireStableFixture(t *testing.T) { runFixture(t, "wirestable", WireStable) }

// TestWireLockTextStable re-derives the wirestable fixture's lock text
// twice, the second time from a fresh load, and requires identical
// bytes: `-writewire` must never produce a spurious diff.
func TestWireLockTextStable(t *testing.T) {
	dir := filepath.Join("testdata", "wirestable")
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	first, err := WireLockText(mod)
	if err != nil {
		t.Fatalf("first derivation: %v", err)
	}
	again, err := WireLockText(mod)
	if err != nil {
		t.Fatalf("second derivation: %v", err)
	}
	if first != again {
		t.Errorf("WireLockText unstable across runs on one module:\n%q\nvs\n%q", first, again)
	}
	fresh, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("reloading fixture: %v", err)
	}
	second, err := WireLockText(fresh)
	if err != nil {
		t.Fatalf("derivation from fresh load: %v", err)
	}
	if first != second {
		t.Errorf("WireLockText unstable across loads:\n%q\nvs\n%q", first, second)
	}
}

// TestRepoInvariantsClean runs the whole suite over the real module —
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
	diags, err := RunAnalyzers(mod, All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// directives are the //simvet: directives the suite reads.
var directives = []string{"orderfree", "keypath", "keypure", "wire"}

// TestDirectivesSpelled scans every comment of the module's Go files,
// tests and fixtures included, and fails on one that starts with
// //simvet: but names none of the directives: a misspelled
// //simvet:keypath or //simvet:wire would silently drop that root or
// type from checking.
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
					t.Errorf("%s: unknown directive %q; the suite reads //simvet: %s", fset.Position(c.Slash), m[0], strings.Join(directives, ", "))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
