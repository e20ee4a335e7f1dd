package simvet

// A standard-library reimplementation of the x/tools analysistest
// harness: each fixture under testdata/ is a tiny self-contained
// module; // want `regexp` comments mark the lines where a diagnostic
// is expected. The module carries no dependency on golang.org/x/tools,
// so the harness mimics the semantics (every want must be matched,
// every diagnostic must be wanted) on go/ast alone.

import (
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// wantRe extracts the expected-diagnostic pattern from a comment.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// lockWantRe extracts an expected-diagnostic pattern from a fixture's
// docs/wire.lock. A lock entry cannot carry a trailing comment (the
// parser would read it as schema), so a `# want` line binds to the
// line directly below it.
var lockWantRe = regexp.MustCompile("^# want `([^`]+)`")

type wantKey struct {
	file string
	line int
}

// runFixture loads the fixture module and checks the analyzers'
// diagnostics against the fixture's want comments. It runs the
// analyzers twice over the one loaded module and requires the same
// diagnostics both times: a run must leave nothing behind (a "reported
// once" mark, a cached summary) that changes the next.
func runFixture(t *testing.T, fixture string, analyzers ...*Analyzer) {
	t.Helper()
	mod, err := LoadModule(filepath.Join("testdata", fixture))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	diags, err := RunAnalyzers(mod, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", fixture, err)
	}
	again, err := RunAnalyzers(mod, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s again: %v", fixture, err)
	}
	if !slices.Equal(diags, again) {
		t.Errorf("a second run over the same module differs:\n%v\nvs\n%v", diags, again)
	}

	wants := make(map[wantKey]*regexp.Regexp)
	matched := make(map[wantKey]bool)
	for _, pkg := range mod.Packages {
		for _, f := range pkg.Files {
			collectWants(t, mod, f.Comments, wants)
		}
	}
	// Wirestable anchors lock-only diagnostics at lines of the lock file
	// itself; the same path construction keeps the keys
	// comparable.
	collectLockWants(t, filepath.Join(mod.Dir, filepath.FromSlash(WireLockFile)), wants)

	for _, d := range diags {
		k := wantKey{file: d.Pos.Filename, line: d.Pos.Line}
		re, ok := wants[k]
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
			continue
		}
		if !re.MatchString(d.Message) {
			t.Errorf("%s: diagnostic %q does not match want %q", d.Pos, d.Message, re)
			continue
		}
		matched[k] = true
	}
	for k, re := range wants {
		if !matched[k] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
}

// collectWants records every want comment in the group list.
func collectWants(t *testing.T, mod *Module, comments []*ast.CommentGroup, wants map[wantKey]*regexp.Regexp) {
	t.Helper()
	for _, g := range comments {
		for _, c := range g.List {
			m := wantRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("bad want pattern %q: %v", m[1], err)
			}
			pos := mod.Fset.Position(c.Slash)
			wants[wantKey{file: pos.Filename, line: pos.Line}] = re
		}
	}
}

// collectLockWants records the `# want` patterns of a fixture's wire
// lock, if it has one; each binds to the next line.
func collectLockWants(t *testing.T, path string, wants map[wantKey]*regexp.Regexp) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		return // fixture without a lock file
	}
	for i, line := range strings.Split(string(data), "\n") {
		m := lockWantRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		re, err := regexp.Compile(m[1])
		if err != nil {
			t.Fatalf("bad want pattern %q in %s: %v", m[1], path, err)
		}
		wants[wantKey{file: path, line: i + 2}] = re
	}
}
