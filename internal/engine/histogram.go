package engine

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram accumulates a distribution with exact quantiles (it keeps
// every sample; the simulator's message counts are modest) plus
// power-of-two bucket counts for compact rendering. The zero value is
// ready to use.
type Histogram struct {
	samples []float64
	sorted  bool
}

// Add records a sample.
func (h *Histogram) Add(v float64) {
	h.samples = append(h.samples, v)
	h.sorted = false
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Mean returns the sample mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range h.samples {
		sum += v
	}
	return sum / float64(len(h.samples))
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest-rank, or 0
// when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("engine: quantile %v out of [0, 1]", q))
	}
	h.sort()
	idx := int(math.Ceil(q*float64(len(h.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return h.samples[idx]
}

// Max returns the largest sample, or 0 when empty.
func (h *Histogram) Max() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.sort()
	return h.samples[len(h.samples)-1]
}

func (h *Histogram) sort() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Buckets returns power-of-two bucket boundaries and counts covering
// the samples: bucket i counts samples in [2^i, 2^{i+1}).
func (h *Histogram) Buckets() (lo []float64, counts []int) {
	if len(h.samples) == 0 {
		return nil, nil
	}
	h.sort()
	maxExp := int(math.Floor(math.Log2(math.Max(h.samples[len(h.samples)-1], 1))))
	counts = make([]int, maxExp+1)
	lo = make([]float64, maxExp+1)
	for i := range lo {
		lo[i] = math.Pow(2, float64(i))
	}
	for _, v := range h.samples {
		e := 0
		if v >= 1 {
			e = int(math.Floor(math.Log2(v)))
		}
		if e > maxExp {
			e = maxExp
		}
		counts[e]++
	}
	return lo, counts
}

// String renders a compact text histogram.
func (h *Histogram) String() string {
	if len(h.samples) == 0 {
		return "histogram: empty"
	}
	lo, counts := h.Buckets()
	peak := 0
	for _, c := range counts {
		if c > peak {
			peak = c
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "histogram: n=%d mean=%.1f p50=%.0f p95=%.0f p99=%.0f max=%.0f\n",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.Max())
	for i, c := range counts {
		if c == 0 {
			continue
		}
		bar := strings.Repeat("#", 1+c*40/peak)
		fmt.Fprintf(&sb, "  [%8.0f, %8.0f) %6d %s\n", lo[i], lo[i]*2, c, bar)
	}
	return sb.String()
}
