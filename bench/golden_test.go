package main

import (
	"strings"
	"testing"
)

const figureCSV = "figure,series,offered,throughput,latency_cycles,latency_ms,latency_stddev,messages,sustainable,replicas\n" +
	"fig16a,cube TMIN,0.0500,0.0497,577.6,28.880,310.2,2230,true,1\n" +
	"fig16a,\"TMIN, butterfly\",0.1000,0.0999,601.3,30.065,330.9,4461,true,1\n"

const wantProjection = "figure,series,offered,throughput,latency_cycles,messages,sustainable\n" +
	"fig16a,cube TMIN,0.0500,0.0497,577.6,2230,true\n" +
	"fig16a,\"TMIN, butterfly\",0.1000,0.0999,601.3,4461,true\n"

func TestProjectSelectsColumnsByName(t *testing.T) {
	got, err := project(figureCSV)
	if err != nil {
		t.Fatal(err)
	}
	if got != wantProjection {
		t.Errorf("got:\n%s\nwant:\n%s", got, wantProjection)
	}
}

// A later PR may add columns to the figure CSV (ROADMAP item 5) or
// move them; the golden projection must not notice.
func TestProjectToleratesAddedAndReorderedColumns(t *testing.T) {
	var sb strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(figureCSV, "\n"), "\n") {
		// Move the last column to the front and append two new ones.
		i := strings.LastIndex(line, ",")
		sb.WriteString(line[i+1:] + "," + line[:i] + ",p99,stage_blocked\n")
	}
	got, err := project(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != wantProjection {
		t.Errorf("got:\n%s\nwant:\n%s", got, wantProjection)
	}
}

func TestProjectReportsAMissingColumn(t *testing.T) {
	_, err := project(strings.Replace(figureCSV, "messages", "msgs", 1))
	if err == nil || !strings.Contains(err.Error(), `"messages"`) {
		t.Errorf("got %v, want an error naming the missing column", err)
	}
}

func TestProjectAllKeepsOneHeader(t *testing.T) {
	got, err := projectAll([]string{figureCSV, figureCSV})
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(got, "figure,series"); n != 1 {
		t.Errorf("%d header lines, want 1", n)
	}
	if n := strings.Count(got, "\n"); n != 5 {
		t.Errorf("%d lines, want 5", n)
	}
}

func TestDiffRows(t *testing.T) {
	if n, _ := diffRows("a\nb\nc\n", "a\nb\nc\n"); n != 0 {
		t.Errorf("equal documents: %d rows differ", n)
	}
	n, first := diffRows("a\nX\nc\n", "a\nb\nc\nd\n")
	if n != 2 || !strings.Contains(first, "line 2") {
		t.Errorf("got %d rows, first %q; want 2 rows, first at line 2", n, first)
	}
}

// Every workload, and the engine probes, must have committed golden
// statistics at the golden seed.
func TestGoldenFilesPresent(t *testing.T) {
	names := []string{"probes"}
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, name := range names {
		data, err := assets.ReadFile(goldenName(name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if strings.Count(string(data), "\n") < 2 {
			t.Errorf("%s: no rows", goldenName(name))
		}
	}
}

// A served reply is compared figure by figure against the twin, and
// the twin against the golden file once; a wrong row is a failed
// operation, not an error.
func TestReferenceCountsWrongRows(t *testing.T) {
	e := &env{seed: goldenSeed + 1} // off the golden seed: twin check only
	ref := reference{name: "t", twin: map[string]string{"f": "h\n1\n2\n"}}
	var o outcome
	ref.check(e, []string{"f"}, map[string]string{"f": "h\n1\n2\n"}, &o)
	if o.failed != 0 {
		t.Fatalf("identical CSV: %d failed (%s)", o.failed, o.note)
	}
	ref.check(e, []string{"f"}, map[string]string{"f": "h\n1\n3\n"}, &o)
	ref.check(e, []string{"f"}, map[string]string{"g": "h\n"}, &o)
	if o.failed != 2 || !strings.Contains(o.note, "line 3") {
		t.Errorf("got %d failed, note %q; want 2 failed, first at line 3", o.failed, o.note)
	}
}
