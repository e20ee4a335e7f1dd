package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFiguresPinned: `minsim figures -list` and one panel's -csv print
// what the former figures binary printed for the same flags, byte for
// byte.
func TestFiguresPinned(t *testing.T) {
	for _, c := range []struct {
		args   []string
		golden string
	}{
		{[]string{"-list"}, "figures-list.golden"},
		{[]string{"-id", "fig16a", "-quick", "-warmup", "1000", "-measure", "4000", "-csv", "-cache", ""}, "figures-fig16a.golden"},
	} {
		var got bytes.Buffer
		if err := figures(c.args, &got, new(bytes.Buffer)); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("figures %v differs from %s:\n%s", c.args, c.golden, got.String())
		}
	}
}

// TestFiguresWarmRerun: a panel run twice against one store executes
// every point on the first run and none on the second, and prints the
// same CSV — the cache returns what the simulations computed.
func TestFiguresWarmRerun(t *testing.T) {
	args := []string{"-id", "fig16a", "-quick", "-csv", "-warmup", "1000", "-measure", "4000", "-cache", t.TempDir()}
	var cold, warm, coldErr, warmErr bytes.Buffer
	if err := figures(args, &cold, &coldErr); err != nil {
		t.Fatal(err)
	}
	if err := figures(args, &warm, &warmErr); err != nil {
		t.Fatal(err)
	}
	if cold.String() != warm.String() {
		t.Errorf("warm CSV differs:\n%s\ncold:\n%s", warm.String(), cold.String())
	}
	if strings.Contains(coldErr.String(), " 0 executed") || !strings.Contains(warmErr.String(), "figures: plan: 20 points requested, 20 unique: 20 cached, 0 executed") {
		t.Errorf("cold run %q, warm run %q: want points executed only on the cold run", coldErr.String(), warmErr.String())
	}
}

// TestFiguresOut: -out writes each figure's CSV into the directory and
// prints its summary, and -file runs the experiment its JSON defines in
// place of -id.
func TestFiguresOut(t *testing.T) {
	dir := t.TempDir()
	exp := filepath.Join(dir, "exp.json")
	if err := os.WriteFile(exp, []byte(`{"id": "mine", "title": "one TMIN", "loads": [0.1, 0.3],
		"curves": [{"label": "cube TMIN", "network": {"kind": "tmin"}, "workload": {"pattern": "uniform"}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	var stdout bytes.Buffer
	if err := figures([]string{"-id", "fig16a", "-file", exp, "-warmup", "1000", "-measure", "4000", "-out", out, "-cache", ""}, &stdout, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(filepath.Join(out, "mine.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(string(csv), "\nmine,cube TMIN,"); rows != 2 {
		t.Errorf("mine.csv has %d rows of the curve, want 2:\n%s", rows, csv)
	}
	if want := "mine -> " + filepath.Join(out, "mine.csv") + "\n"; !strings.HasPrefix(stdout.String(), want) {
		t.Errorf("stdout %q, want it to start %q", stdout.String(), want)
	}
}

// TestFiguresProgress: -progress rewrites one status line, whose last
// rewrite shows every point done, before the plan line. The plan
// serializes its progress calls in order; under -race this also
// checks that the printer needs no lock of its own.
func TestFiguresProgress(t *testing.T) {
	var stderr bytes.Buffer
	args := []string{"-id", "fig16a", "-quick", "-warmup", "1000", "-measure", "4000", "-procs", "2", "-progress", "-cache", ""}
	if err := figures(args, io.Discard, &stderr); err != nil {
		t.Fatal(err)
	}
	status, plan, _ := strings.Cut(stderr.String(), "\n")
	if i := strings.LastIndexByte(status, '\r'); i < 0 || !strings.HasPrefix(status[i:], "\r20/20 done (0 cached, 20 simulated, 0 running)") {
		t.Errorf("status line %q: the last rewrite does not show every point done", status)
	}
	if !strings.HasPrefix(plan, "figures: plan: 20 points requested") {
		t.Errorf("plan line %q", plan)
	}
}
