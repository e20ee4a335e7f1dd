package main

import (
	"math"
	"sort"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for
// an even count), or NaN for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minOf(v []float64) float64 {
	m := math.NaN()
	for _, x := range v {
		if math.IsNaN(m) || x < m {
			m = x
		}
	}
	return m
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (its default "exclusive"
// method), because that is how the driver measures spread. It needs
// at least two samples.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// iqrFrac is the interquartile distance as a share of the median.
func iqrFrac(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	return (q3 - q1) / q2
}

// eligiblePercentile returns the highest percentile that still has
// ten samples beyond it, and its value. Below twenty samples no
// percentile above the median qualifies, so the median is returned.
func eligiblePercentile(v []float64) (pct, value float64) {
	n := len(v)
	if n < 20 {
		return 50, median(v)
	}
	s := sorted(v)
	return 100 * float64(n-10) / float64(n), s[n-11]
}

// relTimes normalises unit wall times by the reference kernel: each
// unit is divided by the mean of the passes before and after it.
func relTimes(units, before, after []float64) []float64 {
	out := make([]float64, len(units))
	for i, u := range units {
		out[i] = u / ((before[i] + after[i]) / 2)
	}
	return out
}
