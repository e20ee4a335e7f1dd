package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docCommand matches a `minsim <sub>` command line in the docs up to
// the end of its code span, a shell comment, pipe, list or redirect.
var docCommand = regexp.MustCompile("\\bminsim (run|sweep|saturate|topo|figures)\\b([^`#|&;>\n]*)")

// docFlag matches one flag of a command line, without its value.
var docFlag = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)

// TestDocFlagsExist: every `minsim <sub> -flag` in README, DESIGN,
// EXPERIMENTS, docs/*.md and the verification notes names a flag that
// the subcommand registers, so a renamed or deleted flag cannot linger
// in them.
func TestDocFlagsExist(t *testing.T) {
	registered := map[string]map[string]bool{}
	for sub := range commands {
		var stderr bytes.Buffer
		minsim([]string{sub, "-h"}, io.Discard, &stderr)
		flags := map[string]bool{"h": true, "help": true}
		for _, line := range strings.Split(stderr.String(), "\n") {
			if name, ok := strings.CutPrefix(line, "  -"); ok {
				flags[strings.Fields(name)[0]] = true
			}
		}
		registered[sub] = flags
	}

	docs, err := filepath.Glob("../../docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, doc := range append([]string{"../../README.md", "../../DESIGN.md", "../../EXPERIMENTS.md", "../../.claude/skills/verify/SKILL.md"}, docs...) {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range docCommand.FindAllStringSubmatch(line, -1) {
				for _, f := range docFlag.FindAllStringSubmatch(m[2], -1) {
					checked++
					if !registered[m[1]][f[1]] {
						t.Errorf("%s: minsim %s has no flag -%s", fmt.Sprintf("%s:%d", filepath.Base(doc), i+1), m[1], f[1])
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no minsim flags found in the docs; is the pattern stale?")
	}
}
