package main

import (
	"embed"
	"encoding/csv"
	"fmt"
	"os"
	"strings"
)

// The panels are the benchmark's inputs and the golden files its
// reference outputs; both travel inside the binary so two builds can
// be compared from any directory (see ab.sh).
//
//go:embed panels/*.json golden/*.csv
var assets embed.FS

// goldenSeed is the only seed with committed reference statistics.
// Other seeds are checked for self-consistency only.
const goldenSeed = 1995

// goldenColumns are the simulated statistics the golden files pin,
// looked up in the figure CSV by name, so columns added to that CSV
// later do not disturb the check.
var goldenColumns = []string{"figure", "series", "offered", "throughput", "latency_cycles", "messages", "sustainable"}

// project keeps the golden columns of a figure CSV, header included.
func project(figureCSV string) (string, error) {
	rows, err := csv.NewReader(strings.NewReader(figureCSV)).ReadAll()
	if err != nil {
		return "", fmt.Errorf("figure CSV: %w", err)
	}
	if len(rows) == 0 {
		return "", fmt.Errorf("figure CSV: empty")
	}
	idx := make([]int, len(goldenColumns))
	for i, name := range goldenColumns {
		idx[i] = -1
		for j, h := range rows[0] {
			if h == name {
				idx[i] = j
			}
		}
		if idx[i] < 0 {
			return "", fmt.Errorf("figure CSV: no column %q", name)
		}
	}
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	for _, row := range rows {
		out := make([]string, len(idx))
		for i, j := range idx {
			out[i] = row[j]
		}
		if err := w.Write(out); err != nil {
			return "", err
		}
	}
	w.Flush()
	return sb.String(), w.Error()
}

// projectAll projects several figure CSVs into one golden document:
// one header, then every figure's rows in order.
func projectAll(figureCSVs []string) (string, error) {
	var sb strings.Builder
	for i, c := range figureCSVs {
		p, err := project(c)
		if err != nil {
			return "", err
		}
		if i > 0 {
			p = p[strings.Index(p, "\n")+1:]
		}
		sb.WriteString(p)
	}
	return sb.String(), nil
}

func goldenName(name string) string {
	return fmt.Sprintf("golden/%s.seed%d.csv", name, goldenSeed)
}

// diffRows counts the lines of got that differ from want (missing and
// extra lines included) and describes the first difference.
func diffRows(got, want string) (int, string) {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	n, first := 0, ""
	for i := 0; i < max(len(g), len(w)); i++ {
		var a, b string
		if i < len(g) {
			a = g[i]
		}
		if i < len(w) {
			b = w[i]
		}
		if a != b {
			if n == 0 {
				first = fmt.Sprintf("line %d: got %q, want %q", i+1, a, b)
			}
			n++
		}
	}
	return n, first
}

// checkGolden compares a projected document with the committed golden
// file of that name and returns how many rows differ. With update set
// it rewrites the file in the source tree instead.
func checkGolden(name, projected string, update bool) (int, string, error) {
	if update {
		if err := os.WriteFile(goldenName(name), []byte(projected), 0o644); err != nil {
			return 0, "", fmt.Errorf("updating golden file (run from bench/): %w", err)
		}
		return 0, "", nil
	}
	want, err := assets.ReadFile(goldenName(name))
	if err != nil {
		return 0, "", fmt.Errorf("golden file: %w", err)
	}
	n, first := diffRows(projected, string(want))
	return n, first, nil
}
