package metrics

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
)

// fmtCSV is Figure.CSV as it was written through fmt, kept as the
// reference: the strconv rendering must not move one byte of any
// committed figure CSV.
func fmtCSV(f Figure) string {
	var sb strings.Builder
	sb.WriteString(csvHeader)
	for _, s := range f.Series {
		for _, p := range s.Points {
			replicas := p.Replicas
			latLo, latHi := p.LatencyCILo, p.LatencyCIHi
			thrLo, thrHi := p.ThroughputCILo, p.ThroughputCIHi
			if replicas == 0 {
				replicas = 1
				latLo, latHi = p.LatencyCyc, p.LatencyCyc
				thrLo, thrHi = p.Throughput, p.Throughput
			}
			fmt.Fprintf(&sb, "%s,%s,%.4f,%.4f,%.1f,%.3f,%.1f,%d,%t,%d,%.1f,%.1f,%.4f,%.4f\n",
				f.ID, s.Label, p.Offered, p.Throughput, p.LatencyCyc, p.LatencyMs, p.StdDev, p.Messages, p.Sustainable,
				replicas, latLo, latHi, thrLo, thrHi)
		}
	}
	return sb.String()
}

func TestCSVMatchesFmt(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1e21, -1e21, 5e-5, 0.00005, 0.00015, 2.5, 3.5, 0.25, 0.35, 0.0005, 0.0015,
		0.1, 0.29995, 123.45, 99999.95, math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	f := Figure{ID: "figX", Series: []Series{{Label: "a series, with a comma"}, {Label: ""}}}
	for i, v := range values {
		// Every value visits every float column and precision.
		w := values[(i+1)%len(values)]
		for si, replicas := range []int{0, 8} {
			f.Series[si].Points = append(f.Series[si].Points, Point{
				Offered: v, Throughput: w, LatencyCyc: v, LatencyMs: v, StdDev: w,
				Messages: int64(i) * math.MaxInt64 / int64(len(values)), Sustainable: i%2 == 0,
				Replicas:    replicas,
				LatencyCILo: w, LatencyCIHi: v, ThroughputCILo: v, ThroughputCIHi: w,
			})
		}
	}
	f.Series[0].Points = append(f.Series[0].Points, Point{Messages: math.MinInt64, Replicas: -1})
	if got, want := f.CSV(), fmtCSV(f); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range wl {
			if i >= len(gl) || gl[i] != wl[i] {
				t.Fatalf("CSV line %d differs from the fmt rendering:\n  got  %s\n  want %s", i, gl[min(i, len(gl)-1)], wl[i])
			}
		}
		t.Fatalf("CSV has %d lines, the fmt rendering %d", len(gl), len(wl))
	}
	if got := (Figure{ID: "empty"}).CSV(); got != csvHeader {
		t.Errorf("empty figure CSV = %q, want the header alone", got)
	}
}

// checkDigits holds appendFixed to strconv's 'f' at precisions 0–6,
// and Figure.CSV to fmtCSV with v in every float column (so at each of
// the CSV's precisions, 1, 3 and 4).
func checkDigits(t *testing.T, v float64) {
	t.Helper()
	for prec := 0; prec <= 6; prec++ {
		if got, want := appendFixed(nil, v, prec), strconv.AppendFloat(nil, v, 'f', prec, 64); !bytes.Equal(got, want) {
			t.Fatalf("appendFixed(%v [%#016x], %d) = %s, want %s", v, math.Float64bits(v), prec, got, want)
		}
	}
	f := Figure{ID: "f", Series: []Series{{Label: "s", Points: []Point{{
		Offered: v, Throughput: v, LatencyCyc: v, LatencyMs: v, StdDev: v, Replicas: 2,
		LatencyCILo: v, LatencyCIHi: v, ThroughputCILo: v, ThroughputCIHi: v,
	}}}}}
	if got, want := f.CSV(), fmtCSV(f); got != want {
		t.Fatalf("CSV of %v [%#016x]:\n  got  %s  want %s", v, math.Float64bits(v), got[len(csvHeader):], want[len(csvHeader):])
	}
}

// digitSeeds are the values FuzzCSVDigits starts from: every value of
// TestCSVMatchesFmt; near-halfway values at 1, 3 and 4 decimals (the
// float64 nearest to m.5 units of the last place, which lies on one
// side or the other) and exact binary ties (2.5, 0.125, 0.03125, …);
// the last values before a carry to the next power of ten (9.95 at 1
// decimal, 0.99995 at 4, …) and the powers themselves; subnormals,
// ±1e21 and beyond, NaN and ±Inf; and random bit patterns from a fixed
// seed, both raw and squeezed into the magnitudes a figure holds.
func digitSeeds() []float64 {
	seeds := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1e21, -1e21, 1e22, 123456789e15, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff), math.Float64frombits(0x0010000000000000),
		5e-5, 0.00005, 0.00015, 2.5, 3.5, 0.25, 0.35, 0.0005, 0.0015, 0.1, 0.29995, 123.45, 99999.95,
	}
	for _, prec := range []int{1, 3, 4} {
		ulp := math.Pow(10, -float64(prec))
		for _, m := range []float64{0, 1, 2, 7, 34, 99, 350, 999, 4095, 99999, 1e8 - 1, 1e11 - 1} {
			seeds = append(seeds, (m+0.5)*ulp)
		}
		for x := -prec; x <= 15-prec; x++ {
			p := math.Pow(10, float64(x+1))
			seeds = append(seeds, p-ulp/2, p)
		}
	}
	for j := 1; j <= 20; j++ {
		for _, m := range []float64{1, 3, 5, 77, 12345} {
			seeds = append(seeds, math.Ldexp(m, -j))
		}
	}
	rng := rand.New(rand.NewPCG(1995, 26))
	for range 200 {
		bits := rng.Uint64()
		seeds = append(seeds, math.Float64frombits(bits), squeeze(bits))
	}
	return seeds
}

// squeeze gives bits an exponent field in [-17, 46]: a magnitude from
// about 7.6e-6 to 1.4e14, where appendFixed formats rather than hands
// over.
func squeeze(bits uint64) float64 {
	return math.Float64frombits(bits&^(0x7ff<<52) | uint64(1023-17+int(bits>>52&0x3f))<<52)
}

// FuzzCSVDigits: for any float64, and its negation, neighbours and
// squeezed twin, appendFixed is strconv's 'f' and Figure.CSV is fmt's
// %.Nf. Without -fuzz it runs digitSeeds.
func FuzzCSVDigits(f *testing.F) {
	for _, v := range digitSeeds() {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		for _, w := range []float64{v, -v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)), squeeze(bits)} {
			checkDigits(t, w)
		}
	})
}

// TestPow10Thresholds checks what appendFixed's exponent rests on: a
// float64 is at least pow10[i] exactly when it is at least 10^k, i.e.
// pow10[i] is 10^k or the float64 just above it, and the float64 just
// below it is below 10^k. And the exponent estimate is
// floor(e2·log10 2) over every binary exponent.
func TestPow10Thresholds(t *testing.T) {
	for i, p := range pow10 {
		k := i + pow10Min
		exact := new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(k, -k))), nil))
		if k < 0 {
			exact.Inv(exact)
		}
		if new(big.Rat).SetFloat64(p).Cmp(exact) < 0 {
			t.Errorf("pow10[%d] = %v is below 10^%d", i, p, k)
		}
		if new(big.Rat).SetFloat64(math.Nextafter(p, 0)).Cmp(exact) >= 0 {
			t.Errorf("the float64 below pow10[%d] = %v is not below 10^%d", i, p, k)
		}
	}
	for e2 := -1023; e2 <= 1024; e2++ {
		if got, want := e2*78913>>18, int(math.Floor(float64(e2)*math.Log10(2))); got != want {
			t.Errorf("exponent estimate for 2^%d = %d, want %d", e2, got, want)
		}
	}
}
