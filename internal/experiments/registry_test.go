package experiments

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"minsim/internal/simrun"
)

var update = flag.Bool("update", false, "rewrite testdata/registry.digests from the current code")

const registryDigests = "testdata/registry.digests"

// registryBudget is what `figures -quick -extensions -warmup 100
// -measure 300 -seed 777` runs: QuickBudget cut short enough that the
// whole registry (848 unique points) simulates in well under a second.
var registryBudget = func() Budget {
	b := QuickBudget
	b.WarmupCycles, b.MeasureCycles, b.Seed = 100, 300, 777
	return b
}()

// TestRegistryDigests runs every paper figure and extension through
// one Plan over a DiskStore and holds each figure's CSV and each store
// entry file to a digest recorded in testdata/registry.digests. A
// change to any simulated number, CSV byte, content key or entry
// layout shows here, naming the first figure or entry that moved.
// Repin only on purpose, with -update.
func TestRegistryDigests(t *testing.T) {
	exps := append(Figures(), Extensions()...)
	store, err := simrun.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	figs, err := RunAll(context.Background(), exps, registryBudget, simrun.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}

	var got []digestLine
	for _, fig := range figs {
		got = append(got, digestLine{"csv", fig.ID, digest([]byte(fig.CSV()))})
	}
	entries, err := filepath.Glob(filepath.Join(store.Dir(), "*.entry"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(entries)
	specs := make(map[string]string, len(entries))
	for _, path := range entries {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		key := strings.TrimSuffix(filepath.Base(path), ".entry")
		got = append(got, digestLine{"entry", key, digest(data)})
		if lines := strings.SplitN(string(data), "\n", 3); len(lines) > 1 {
			specs[key] = lines[1]
		}
	}

	if *update {
		var b strings.Builder
		fmt.Fprintf(&b, "# TestRegistryDigests: %d figures and extensions, %d store entries at warmup %d, measure %d, seed %d.\n",
			len(figs), len(entries), registryBudget.WarmupCycles, registryBudget.MeasureCycles, registryBudget.Seed)
		b.WriteString("# Regenerate only on purpose: go test ./internal/experiments -run TestRegistryDigests -update\n")
		for _, d := range got {
			fmt.Fprintf(&b, "%s %s %s\n", d.kind, d.name, d.sum)
		}
		if err := os.WriteFile(registryDigests, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	want := readDigests(t)
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(want):
			t.Fatalf("%s %s is new (spec %s); %d lines recorded", got[i].kind, got[i].name, specs[got[i].name], len(want))
		case i >= len(got):
			t.Fatalf("%s %s is recorded but not produced", want[i].kind, want[i].name)
		case got[i] == want[i]:
			continue
		case got[i].kind != want[i].kind || got[i].name != want[i].name:
			t.Fatalf("line %d: got %s %s (spec %s), recorded %s %s: the figure list or a content key moved",
				i+1, got[i].kind, got[i].name, specs[got[i].name], want[i].kind, want[i].name)
		case got[i].kind == "csv":
			t.Fatalf("figure %s: CSV digest %s, recorded %s", got[i].name, got[i].sum, want[i].sum)
		default:
			t.Fatalf("entry %s (spec %s): digest %s, recorded %s", got[i].name, specs[got[i].name], got[i].sum, want[i].sum)
		}
	}
}

type digestLine struct{ kind, name, sum string }

// digest is the first 16 hex digits of data's SHA-256: a 64-bit
// fingerprint, ample for noticing a change, at half the file size.
func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

func readDigests(t *testing.T) []digestLine {
	t.Helper()
	f, err := os.Open(registryDigests)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	defer f.Close()
	var out []digestLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("%s: malformed line %q", registryDigests, line)
		}
		out = append(out, digestLine{fields[0], fields[1], fields[2]})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
