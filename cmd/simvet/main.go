// Command simvet runs the simulator's custom static-analysis suite
// (package internal/simvet): four analyzers — keypurity, wirestable,
// lockscope, ctxflow — over the module loaded as one program, guarding
// the content-addressed cache-key paths, the committed wire schema
// (docs/wire.lock), mutex critical sections and context
// responsiveness. The whole module is always analyzed; the package
// patterns only select which diagnostics are shown.
//
// Usage:
//
//	simvet [-run keypurity,lockscope] [-json] [-writewire] [packages]
//
// Packages default to ./... (the whole module). Patterns are matched
// against import paths: "./..." selects everything, "./internal/engine"
// or any import-path suffix selects one package. Module-level
// diagnostics (e.g. wire-lock drift) are always reported regardless of
// the package selection.
//
// Exit status: 0 when clean, 1 when diagnostics were reported, 2 when
// the module could not be loaded or the flags were invalid.
//
// -json emits the diagnostics as a JSON array on stdout instead of
// plain text. Under GitHub Actions (GITHUB_ACTIONS=true) each
// diagnostic is additionally emitted as a ::error workflow command so
// findings annotate the pull-request diff.
//
// -writewire regenerates docs/wire.lock from the current
// //simvet:wire declarations and exits; run it after an intentional
// wire-format change so the diff is visible in review.
//
// The suite is self-contained (standard library only), so it runs as
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
	var (
		runList   = fs.String("run", "", "comma-separated analyzer names to run (default: all)")
		list      = fs.Bool("list", false, "list the analyzers and exit")
		jsonOut   = fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
		writeWire = fs.Bool("writewire", false, "regenerate docs/wire.lock from the current //simvet:wire declarations and exit")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return exitError
	}

	all := simvet.All()
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return exitClean
	}
	analyzers := all
	if *runList != "" {
		byName := make(map[string]*simvet.Analyzer)
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*runList, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "simvet: unknown analyzer %q (use -list)\n", name)
				return exitError
			}
			analyzers = append(analyzers, a)
		}
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "simvet: %v\n", err)
		return exitError
	}
	mod, err := simvet.LoadModule(root)
	if err != nil {
		fmt.Fprintf(stderr, "simvet: %v\n", err)
		return exitError
	}

	if *writeWire {
		text, err := simvet.WireLockText(mod)
		if err != nil {
			fmt.Fprintf(stderr, "simvet: %v\n", err)
			return exitError
		}
		path := filepath.Join(root, filepath.FromSlash(simvet.WireLockFile))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fmt.Fprintf(stderr, "simvet: %v\n", err)
			return exitError
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			fmt.Fprintf(stderr, "simvet: %v\n", err)
			return exitError
		}
		fmt.Fprintf(stdout, "simvet: wrote %s (%d bytes)\n", simvet.WireLockFile, len(text))
		return exitClean
	}

	diags, err := simvet.RunAnalyzers(mod, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "simvet: %v\n", err)
		return exitError
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	selected, err := selectPaths(mod, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "simvet: %v\n", err)
		return exitError
	}

	var shown []simvet.Diagnostic
	for _, d := range diags {
		// Diagnostics outside any package (the wire lock file) concern
		// the whole module and ignore the package selection.
		if pkg := packageOf(mod, d.Pos.Filename); pkg == "" || selected[pkg] {
			shown = append(shown, d)
		}
	}

	if *jsonOut {
		writeJSON(stdout, stderr, root, shown)
	} else {
		for _, d := range shown {
			fmt.Fprintln(stdout, d)
		}
	}
	if os.Getenv("GITHUB_ACTIONS") == "true" {
		for _, d := range shown {
			// GitHub workflow commands annotate the PR diff in place.
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d,title=simvet %s::%s\n",
				relPath(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
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

func writeJSON(stdout, stderr *os.File, root string, diags []simvet.Diagnostic) {
	out := make([]jsonDiag, len(diags))
	for i, d := range diags {
		out[i] = jsonDiag{
			Analyzer: d.Analyzer,
			File:     relPath(root, d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil { // unreachable for this shape; keep the output valid
		fmt.Fprintf(stderr, "simvet: encoding diagnostics: %v\n", err)
		data = []byte("[]")
	}
	stdout.Write(append(data, '\n'))
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

// selectPaths resolves package patterns to the set of import paths.
func selectPaths(mod *simvet.Module, patterns []string) (map[string]bool, error) {
	out := make(map[string]bool)
	for _, pat := range patterns {
		if pat == "./..." || pat == "all" || pat == mod.Path+"/..." {
			for _, p := range mod.Packages {
				out[p.Path] = true
			}
			continue
		}
		pat = strings.TrimPrefix(pat, "./")
		pat = strings.TrimSuffix(pat, "/...")
		matched := false
		for _, p := range mod.Packages {
			if p.Path == pat || strings.HasSuffix(p.Path, "/"+pat) ||
				strings.HasPrefix(p.Path, mod.Path+"/"+pat) {
				out[p.Path] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matches no package in module %s", pat, mod.Path)
		}
	}
	return out, nil
}

// packageOf maps a diagnostic's file back to its package import path.
func packageOf(mod *simvet.Module, file string) string {
	dir := filepath.Dir(file)
	for _, p := range mod.Packages {
		if p.Dir == dir {
			return p.Path
		}
	}
	return ""
}
