package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// A runs file is JSON lines, one per run: {"workload": ..., "result":
// <the run's last output line>}. ab.sh writes two of them from
// process-interleaved pairs; line i of A and line i of B for one
// workload are a pair.

type runLine struct {
	Workload string `json:"workload"`
	Result   result `json:"result"`
}

// metricRule is an end-to-end metric's direction and bound, read from
// BENCHMARK.json so the verdicts use the bounds the driver uses.
type metricRule struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readRuns(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l runLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out[l.Workload] = append(out[l.Workload], l.Result)
	}
	return out, sc.Err()
}

func readRules() ([]metricRule, error) {
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var spec struct {
			EndToEnd []metricRule `json:"end_to_end"`
		}
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return spec.EndToEnd, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// verdict applies the paired-run rule to one metric on one workload.
// a and b are paired samples (a = parent, b = change); lower says
// which direction is better.
//
//	gain        b wins at least nine tenths of the pairs (ties count for
//	            neither) and the medians differ by more than a's own
//	            interquartile distance
//	regression  b's median is worse than a's by more than the bound
//	unresolved  neither, but a's spread exceeds the bound, so "no worse
//	            than the bound" cannot be told from noise — unless every
//	            b is better than every a
//	unchanged   otherwise
func verdict(a, b []float64, lower bool, bound float64) (string, int) {
	better := func(x, y float64) bool {
		if lower {
			return x < y
		}
		return x > y
	}
	wins := 0
	for i := range a {
		if better(b[i], a[i]) {
			wins++
		}
	}
	ma, mb := median(a), median(b)
	q1, _, q3 := quartiles(a)
	gap := mb - ma
	if gap < 0 {
		gap = -gap
	}
	if 10*wins >= 9*len(a) && better(mb, ma) && gap > q3-q1 {
		return "gain", wins
	}
	worse := (mb - ma) / ma
	if !lower {
		worse = -worse
	}
	if worse > bound {
		return "regression", wins
	}
	if (q3-q1)/ma > bound {
		// Every b beats every a exactly when b's worst beats a's best.
		sa, sb := sorted(a), sorted(b)
		bestA, worstB := sa[0], sb[len(sb)-1]
		if !lower {
			bestA, worstB = sa[len(sa)-1], sb[0]
		}
		if !better(worstB, bestA) {
			return "unresolved", wins
		}
	}
	return "unchanged", wins
}

func compareFiles(w io.Writer, pathA, pathB string) error {
	rules, err := readRules()
	if err != nil {
		return err
	}
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(a))
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-14s %-10s %5s  %-32s %-32s %6s  %s\n", "workload", "metric", "pairs", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
	for _, name := range names {
		ra, rb := a[name], b[name]
		n := min(len(ra), len(rb))
		if n < 2 {
			fmt.Fprintf(w, "%-14s needs at least two pairs, has %d\n", name, n)
			continue
		}
		failedA, failedB := 0, 0
		for i := 0; i < n; i++ {
			failedA += ra[i].Failed
			failedB += rb[i].Failed
		}
		for _, rule := range rules {
			va, vb := make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				va[i], vb[i] = ra[i].Metrics[rule.Name].Value, rb[i].Metrics[rule.Name].Value
			}
			v, wins := verdict(va, vb, rule.Better == "lower", rule.Bound)
			if n < 10 && v == "gain" {
				v = "unresolved (fewer than ten pairs)"
			}
			if v == "gain" && failedB > failedA {
				v = "no gain: more operations failed"
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			fmt.Fprintf(w, "%-14s %-10s %5d  %-32s %-32s %6d  %s\n", name, rule.Name, n,
				fmt.Sprintf("%.5g [%.5g, %.5g]", a2, a1, a3), fmt.Sprintf("%.5g [%.5g, %.5g]", b2, b1, b3), wins, v)
		}
		fmt.Fprintf(w, "%-14s %-10s %5d  %-32d %-32d\n", name, "failed", n, failedA, failedB)
	}
	return nil
}
