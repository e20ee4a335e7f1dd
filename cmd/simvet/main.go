// Command simvet runs keypurity (package internal/simvet), the
// simulator's one static check, over the module loaded as one program:
// everything reachable from a //simvet:keypath root must be a pure,
// canonical function of its inputs, so a content key never depends on
// process state. The whole module is always analyzed; the package
// patterns only select which diagnostics are shown.
//
// Usage:
//
//	simvet [-json] [packages]
//
// Packages default to ./... (the whole module). Patterns are matched
// against import paths: "./..." selects everything, "./internal/engine"
// or any import-path suffix selects one package.
//
// Exit status: 0 when clean, 1 when diagnostics were reported, 2 when
// the module could not be loaded or the flags were invalid.
//
// -json emits the diagnostics as a JSON array on stdout instead of
// plain text. Under GitHub Actions (GITHUB_ACTIONS=true) each
// diagnostic is additionally emitted as a ::error workflow command so
// findings annotate the pull-request diff.
//
// The check is self-contained (standard library only), so it runs as
// `go run ./cmd/simvet ./...` with no tool installation; the CI job
// `simvet` does exactly that.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"minsim/internal/simvet"
)

// Exit codes, part of the command's contract (CI distinguishes "found
// violations" from "could not analyze").
const (
	exitClean = 0
	exitDiags = 1
	exitError = 2
)

func main() { os.Exit(run(os.Stdout, os.Stderr)) }

func run(stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("simvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return exitError
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "simvet: %v\n", err)
		return exitError
	}
	root, err := moduleRoot()
	if err != nil {
		return fail(err)
	}
	mod, err := simvet.LoadModule(root)
	if err != nil {
		return fail(err)
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	selected, err := selectDirs(mod, patterns)
	if err != nil {
		return fail(err)
	}

	var shown []simvet.Diagnostic
	for _, d := range simvet.Run(mod) {
		if selected[filepath.Dir(d.Pos.Filename)] {
			shown = append(shown, d)
		}
	}
	if *jsonOut {
		out := make([]jsonDiag, len(shown))
		for i, d := range shown {
			out[i] = jsonDiag{simvet.Name, relPath(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message}
		}
		data, _ := json.MarshalIndent(out, "", "  ") // cannot fail for this shape
		stdout.Write(append(data, '\n'))
	} else {
		for _, d := range shown {
			fmt.Fprintln(stdout, d)
		}
	}
	if os.Getenv("GITHUB_ACTIONS") == "true" {
		for _, d := range shown {
			// GitHub workflow commands annotate the PR diff in place.
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d,title=simvet %s::%s\n",
				relPath(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, simvet.Name, d.Message)
		}
	}
	if len(shown) > 0 {
		fmt.Fprintf(stderr, "simvet: %d invariant violation(s)\n", len(shown))
		return exitDiags
	}
	return exitClean
}

// jsonDiag is the -json output shape, one element per diagnostic.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"` // module-relative
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// relPath renders a diagnostic path relative to the module root (the
// form CI annotations need); absolute as a fallback.
func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return path
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// selectDirs resolves package patterns to the directories of the
// packages they select.
func selectDirs(mod *simvet.Module, patterns []string) (map[string]bool, error) {
	out := make(map[string]bool)
	for _, pat := range patterns {
		all := pat == "./..." || pat == "all" || pat == mod.Path+"/..."
		pat = strings.TrimSuffix(strings.TrimPrefix(pat, "./"), "/...")
		matched := false
		for _, p := range mod.Packages {
			if all || p.Path == pat || strings.HasSuffix(p.Path, "/"+pat) || strings.HasPrefix(p.Path, mod.Path+"/"+pat) {
				out[p.Dir] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matches no package in module %s", pat, mod.Path)
		}
	}
	return out, nil
}
