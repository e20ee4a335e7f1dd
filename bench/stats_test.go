package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd count: got %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count: got %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("no samples: want NaN")
	}
}

// The driver measures spread with Python's statistics.quantiles(v,
// n=4); these are its outputs for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 3, 4.5},
		{[]float64{10, 20}, 7.5, 15, 22.5}, // the exclusive method extrapolates past two points
		{[]float64{3.1, 2.2, 9.5, 4.4, 7.7, 1.0, 6.2}, 2.2, 4.4, 7.7},
	} {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestEligiblePercentile(t *testing.T) {
	v := make([]float64, 40)
	for i := range v {
		v[i] = float64(40 - i) // 40..1, unsorted on purpose
	}
	pct, val := eligiblePercentile(v)
	if pct != 75 || val != 30 {
		t.Errorf("n=40: got p%v = %v, want p75 = 30 (ten samples, 31..40, beyond it)", pct, val)
	}
	pct, val = eligiblePercentile(v[:19])
	if pct != 50 || val != median(v[:19]) {
		t.Errorf("n=19: got p%v = %v, want the median", pct, val)
	}
	pct, _ = eligiblePercentile(make([]float64, 1200))
	if pct < 99 {
		t.Errorf("n=1200: eligible percentile %v, want at least p99", pct)
	}
}

func TestRelTimes(t *testing.T) {
	rel := relTimes([]float64{1.0, 3.0}, []float64{0.1, 0.1}, []float64{0.1, 0.2})
	if !near(rel[0], 10) || !near(rel[1], 20) {
		t.Errorf("got %v, want [10 20]", rel)
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10, 10.05}
	scale := func(f float64) []float64 {
		b := make([]float64, len(a))
		for i, x := range a {
			b[i] = x * f
		}
		return b
	}
	for _, c := range []struct {
		name  string
		b     []float64
		lower bool
		want  string
	}{
		{"ten of ten wins beyond the parent's spread", scale(0.9), true, "gain"},
		{"same runs", a, true, "unchanged"},
		{"worse than the bound", scale(1.2), true, "regression"},
		{"higher is better", scale(1.1), false, "gain"},
		{"a win inside the parent's spread", scale(0.999), true, "unchanged"},
	} {
		if got, _ := verdict(a, c.b, c.lower, 0.1); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
	noisy := []float64{10, 14, 8, 13, 7, 12, 9, 15, 6, 11}
	if got, _ := verdict(noisy, noisy, true, 0.1); got != "unresolved" {
		t.Errorf("spread beyond the bound: got %s, want unresolved", got)
	}
	if got, _ := verdict(noisy, scale(0.4), true, 0.1); got != "gain" {
		t.Errorf("every run of the change below every run of the parent: got %s, want gain", got)
	}
}
