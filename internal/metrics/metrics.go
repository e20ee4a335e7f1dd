// Package metrics turns raw engine statistics into the quantities the
// paper reports — average communication latency and normalized
// sustainable network throughput — and renders latency/throughput
// series as CSV or aligned text tables for the figure harness.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"minsim/internal/engine"
)

// FlitsPerMillisecond is the paper's channel bandwidth: all channels
// transmit 20 flits per millisecond, so one simulator cycle (one flit
// time) is 0.05 ms.
const FlitsPerMillisecond = 20.0

// CyclesToMilliseconds converts a duration in cycles to milliseconds
// at the paper's channel bandwidth.
func CyclesToMilliseconds(cycles float64) float64 {
	return cycles / FlitsPerMillisecond
}

// Point is one measurement of a latency/throughput curve. It is
// serialized (default field names) into simd job results and the
// fleet's store bodies, and its fields are written in declaration
// order into cache-store entries (simrun's entryFields): renaming a
// field breaks API consumers; adding, removing or reordering one needs
// a new entry version, which a simrun test insists on.
type Point struct {
	Offered float64 // nominal offered load, flits/node/cycle
	// OfferedMeasured is the load the sources actually generated in
	// the measurement window (lower than Offered for permutation
	// patterns with fixed points or silent clusters).
	OfferedMeasured float64
	Throughput      float64 // delivered flits/node/cycle
	LatencyCyc      float64 // mean latency, cycles
	LatencyMs       float64 // mean latency, milliseconds
	LatencyP0       float64 // min latency, cycles
	LatencyP100     float64 // max latency, cycles
	StdDev          float64 // latency standard deviation, cycles
	Messages        int64   // messages measured
	Sustainable     bool    // no source queue exceeded the watermark

	// Replication fields, populated by MergeReplicas when the point
	// aggregates several independent runs of one load point (distinct
	// seeds, same configuration). Replicas == 0 marks a single-run
	// point estimate; the CI bounds then carry no information.
	Replicas       int     // independent replications aggregated
	LatencyCILo    float64 // 95% CI lower bound on mean latency, cycles
	LatencyCIHi    float64 // 95% CI upper bound on mean latency, cycles
	ThroughputCILo float64 // 95% CI lower bound on throughput
	ThroughputCIHi float64 // 95% CI upper bound on throughput
}

// FromStats builds a Point from engine statistics.
func FromStats(offered float64, nodes int, st engine.Stats) Point {
	p := Point{
		Offered:         offered,
		OfferedMeasured: st.OfferedMeasured(nodes),
		Throughput:      st.Throughput(nodes),
		LatencyCyc:      st.MeanLatency(),
		Messages:        st.MeasuredMsgs,
		Sustainable:     !st.QueueExceeded,
	}
	p.LatencyMs = CyclesToMilliseconds(p.LatencyCyc)
	if st.MeasuredMsgs > 0 {
		p.LatencyP0 = float64(st.LatencyMin)
		p.LatencyP100 = float64(st.LatencyMax)
		mean := p.LatencyCyc
		variance := st.LatencySumSq/float64(st.MeasuredMsgs) - mean*mean
		if variance > 0 {
			p.StdDev = math.Sqrt(variance)
		}
	}
	return p
}

// MergeReplicas aggregates R single-run points of one load point
// (independent seeds, identical configuration) into a replicated
// point: means across replicas for the load/throughput/latency
// estimates, 95% Student's t confidence intervals over the
// replica means for latency and throughput (via ConfidenceInterval,
// treating each replication as one batch), extremes for the latency
// min/max, and the conjunction of sustainability flags. With a single
// input point it returns that point with Replicas set to 1 and
// degenerate (zero-width) intervals. It panics on an empty slice.
func MergeReplicas(points []Point) Point {
	if len(points) == 0 {
		panic("metrics: MergeReplicas with no points")
	}
	if len(points) == 1 {
		p := points[0]
		p.Replicas = 1
		p.LatencyCILo, p.LatencyCIHi = p.LatencyCyc, p.LatencyCyc
		p.ThroughputCILo, p.ThroughputCIHi = p.Throughput, p.Throughput
		return p
	}
	lat := make([]float64, len(points))
	thr := make([]float64, len(points))
	p := Point{
		Offered:     points[0].Offered,
		LatencyP0:   points[0].LatencyP0,
		Sustainable: true,
		Replicas:    len(points),
	}
	for i, q := range points {
		lat[i] = q.LatencyCyc
		thr[i] = q.Throughput
		p.OfferedMeasured += q.OfferedMeasured
		p.StdDev += q.StdDev
		p.Messages += q.Messages
		p.Sustainable = p.Sustainable && q.Sustainable
		if q.LatencyP0 < p.LatencyP0 {
			p.LatencyP0 = q.LatencyP0
		}
		if q.LatencyP100 > p.LatencyP100 {
			p.LatencyP100 = q.LatencyP100
		}
	}
	n := float64(len(points))
	p.OfferedMeasured /= n
	p.StdDev /= n // mean within-run spread, not the spread of means
	p.LatencyCILo, p.LatencyCIHi, _ = ConfidenceInterval(lat)
	p.ThroughputCILo, p.ThroughputCIHi, _ = ConfidenceInterval(thr)
	for _, v := range lat {
		p.LatencyCyc += v / n
	}
	for _, v := range thr {
		p.Throughput += v / n
	}
	p.LatencyMs = CyclesToMilliseconds(p.LatencyCyc)
	return p
}

// Series is a labeled curve (one network under one workload),
// serialized (default field names) inside simd job results.
type Series struct {
	Label  string
	Points []Point
}

// SaturationThroughput returns the highest sustainable measured
// throughput of the series — the paper's "maximum sustainable network
// throughput". ok is false if no point was sustainable.
func (s Series) SaturationThroughput() (float64, bool) {
	best, ok := 0.0, false
	for _, p := range s.Points {
		if p.Sustainable && p.Throughput > best {
			best, ok = p.Throughput, true
		}
	}
	return best, ok
}

// PeakThroughput returns the highest delivered throughput of the
// series regardless of sustainability — the relevant comparison when
// a workload (e.g. a hot spot) makes every offered load beyond a
// structural bound unsustainable yet the networks still differ in how
// much traffic they deliver while congested.
func (s Series) PeakThroughput() float64 {
	best := 0.0
	for _, p := range s.Points {
		if p.Throughput > best {
			best = p.Throughput
		}
	}
	return best
}

// ConfidenceInterval computes a 95% confidence interval for the
// steady-state mean from batch means (the standard batch-means
// method): mean ± t * s / sqrt(B), with t Student's 0.975 quantile
// for B-1 degrees of freedom (tQuantile975), 12.706 for two batches.
// It needs at least two batches; with fewer it returns the point
// estimate for both bounds and ok = false.
func ConfidenceInterval(batchMeans []float64) (lo, hi float64, ok bool) {
	n := len(batchMeans)
	if n == 0 {
		return 0, 0, false
	}
	mean := 0.0
	for _, v := range batchMeans {
		mean += v
	}
	mean /= float64(n)
	if n < 2 {
		return mean, mean, false
	}
	ss := 0.0
	for _, v := range batchMeans {
		d := v - mean
		ss += d * d
	}
	s := math.Sqrt(ss / float64(n-1))
	half := tQuantile975(n-1) * s / math.Sqrt(float64(n))
	return mean - half, mean + half, true
}

// t975 holds Student's t 0.975 quantile for 1 to 30 degrees of
// freedom.
var t975 = [...]float64{
	12.706205, 4.302653, 3.182446, 2.776445, 2.570582, 2.446912, 2.364624, 2.306004, 2.262157, 2.228139,
	2.200985, 2.178813, 2.160369, 2.144787, 2.131450, 2.119905, 2.109816, 2.100922, 2.093024, 2.085963,
	2.079614, 2.073873, 2.068658, 2.063899, 2.059539, 2.055529, 2.051831, 2.048407, 2.045230, 2.042272,
}

// tQuantile975 is Student's t 0.975 quantile for df >= 1 degrees of
// freedom: the table to 30, then the Cornish-Fisher expansion in 1/df
// about the normal quantile (Abramowitz & Stegun 26.7.5), within 1e-6
// there.
func tQuantile975(df int) float64 {
	if df <= len(t975) {
		return t975[df-1]
	}
	const z = 1.959963984540054 // the normal 0.975 quantile
	z2, v := z*z, float64(df)
	g1 := (z2 + 1) * z / 4
	g2 := ((5*z2+16)*z2 + 3) * z / 96
	g3 := (((3*z2+19)*z2+17)*z2 - 15) * z / 384
	g4 := ((((79*z2+776)*z2+1482)*z2-1920)*z2 - 945) * z / 92160
	return z + (g1+(g2+(g3+g4/v)/v)/v)/v
}

// Figure is a set of series reproducing one paper figure panel,
// serialized (default field names) inside simd job results.
type Figure struct {
	ID     string // e.g. "fig18a"
	Title  string
	Series []Series
}

// csvHeader is the column contract of every CSV the figure harness
// emits; downstream plotting scripts select columns by these names.
const csvHeader = "figure,series,offered,throughput,latency_cycles,latency_ms,latency_stddev,messages,sustainable,replicas,latency_ci_lo,latency_ci_hi,throughput_ci_lo,throughput_ci_hi\n"

// csvRowNumbers bounds the bytes of one CSV row past its figure and
// series names at ordinary magnitudes (the committed figures peak at
// 84); a longer row only makes the builder grow.
const csvRowNumbers = 96

// CSV renders the figure as comma-separated values with a header. The
// trailing replication columns are the error bars: for single-run
// points (replicas = 1) the CI bounds degenerate to the point
// estimates themselves. The columns are fmt's %.4f, %.1f, %.3f, %d and
// %t, written through strconv (floats through appendFixed): a warm
// figure request spends its time here, and fmt's argument boxing and
// verb parsing were most of it.
func (f Figure) CSV() string {
	size := len(csvHeader)
	for _, s := range f.Series {
		size += len(s.Points) * (len(f.ID) + len(s.Label) + csvRowNumbers)
	}
	var sb strings.Builder
	sb.Grow(size)
	sb.WriteString(csvHeader)
	var scratch [32]byte
	float := func(v float64, prec int) {
		sb.WriteByte(',')
		sb.Write(appendFixed(scratch[:0], v, prec))
	}
	integer := func(v int64) {
		sb.WriteByte(',')
		sb.Write(strconv.AppendInt(scratch[:0], v, 10))
	}
	for _, s := range f.Series {
		for _, p := range s.Points {
			replicas := p.Replicas
			latLo, latHi := p.LatencyCILo, p.LatencyCIHi
			thrLo, thrHi := p.ThroughputCILo, p.ThroughputCIHi
			if replicas == 0 { // single-run point estimate
				replicas = 1
				latLo, latHi = p.LatencyCyc, p.LatencyCyc
				thrLo, thrHi = p.Throughput, p.Throughput
			}
			sb.WriteString(f.ID)
			sb.WriteByte(',')
			sb.WriteString(s.Label)
			float(p.Offered, 4)
			float(p.Throughput, 4)
			float(p.LatencyCyc, 1)
			float(p.LatencyMs, 3)
			float(p.StdDev, 1)
			integer(p.Messages)
			sb.WriteByte(',')
			sb.Write(strconv.AppendBool(scratch[:0], p.Sustainable))
			integer(int64(replicas))
			float(latLo, 1)
			float(latHi, 1)
			float(thrLo, 4)
			float(thrHi, 4)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// maxFixedDigits bounds the significant digits appendFixed asks of
// strconv's 'e' form (whose fixed-precision path takes up to 18).
const maxFixedDigits = 15

// pow10 holds 10^k for k = pow10Min … 15: the thresholds appendFixed
// compares against to find a decimal exponent. The positive powers are
// exact; each negative one is the float64 just above 10^k, so for every
// float64 a, a >= pow10[k-pow10Min] exactly when a >= 10^k.
const pow10Min = -4

var pow10 = [...]float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// appendFixed appends exactly strconv.AppendFloat(b, v, 'f', prec, 64)
// for prec >= 0, faster. strconv renders 'f' at an explicit precision
// on its multiprecision path, and 'e' at up to 18 digits on its
// fixed-precision one, with the same rounding (correct, halfway cases
// to even). So with |v| in
// [10^x, 10^(x+1)) appendFixed asks 'e' for the prec+x+1 significant
// digits 'f' prints and places the point itself; when rounding carries
// to 10^(x+1) (9.99995 at 4 decimals is 1.0000e+01) 'f' prints one
// digit more, a trailing zero. Zero, subnormals, NaN, ±Inf and values
// that would need no digit or more than maxFixedDigits go to 'f'.
func appendFixed(b []byte, v float64, prec int) []byte {
	a := math.Abs(v)
	e2 := int(math.Float64bits(a)>>52) - 1023 // 2^e2 <= a < 2^(e2+1) for normal a
	x := e2 * 78913 >> 18                     // floor(e2·log10 2): 10^x <= a < 10^(x+2)
	i := x + 1 - pow10Min
	if i < 0 || i >= len(pow10) {
		return strconv.AppendFloat(b, v, 'f', prec, 64)
	}
	if a >= pow10[i] {
		x++
	}
	digits := prec + x + 1
	if digits < 1 || digits > maxFixedDigits {
		return strconv.AppendFloat(b, v, 'f', prec, 64)
	}
	var scratch [24]byte
	s := strconv.AppendFloat(scratch[:0], a, 'e', digits-1, 64) // d.ddde±XX
	n := len(s)
	exp := int(s[n-2]-'0')*10 + int(s[n-1]-'0')
	if s[n-3] == '-' {
		exp = -exp
	}
	ds := s[:n-4]
	if len(ds) > 1 { // drop the point: dddd
		ds[1] = ds[0]
		ds = ds[1:]
	}
	if exp != x { // carried to 10^(x+1)
		ds = append(ds, '0')
	}
	if v < 0 {
		b = append(b, '-')
	}
	if exp < 0 { // 0.0ddd
		b = append(b, '0', '.')
		for ; exp < -1; exp++ {
			b = append(b, '0')
		}
		return append(b, ds...)
	}
	b = append(b, ds[:exp+1]...)
	if prec > 0 {
		b = append(append(b, '.'), ds[exp+1:]...)
	}
	return b
}

// AppendJSON appends the figure as encoding/json marshals it (field
// names and order as declared, nil slices as null), byte for byte,
// without reflection: simd's warm replies are mostly this text. It
// returns nil if a point holds NaN or ±Inf, which json.Marshal refuses.
func (f Figure) AppendJSON(b []byte) []byte {
	b = AppendJSONString(append(b, `{"ID":`...), f.ID)
	b = AppendJSONString(append(b, `,"Title":`...), f.Title)
	b = append(b, `,"Series":`...)
	if f.Series == nil {
		return append(b, "null}"...)
	}
	b = append(b, '[')
	for i, s := range f.Series {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendJSONString(append(b, `{"Label":`...), s.Label)
		b = append(b, `,"Points":`...)
		if s.Points == nil {
			b = append(b, "null}"...)
			continue
		}
		b = append(b, '[')
		for j, p := range s.Points {
			if j > 0 {
				b = append(b, ',')
			}
			if b = p.appendJSON(b); b == nil {
				return nil
			}
		}
		b = append(b, "]}"...)
	}
	return append(b, "]}"...)
}

// appendJSON appends one point for AppendJSON, or returns nil if a
// float is not finite.
func (p Point) appendJSON(b []byte) []byte {
	for _, x := range [...]float64{p.Offered, p.OfferedMeasured, p.Throughput, p.LatencyCyc, p.LatencyMs,
		p.LatencyP0, p.LatencyP100, p.StdDev, p.LatencyCILo, p.LatencyCIHi, p.ThroughputCILo, p.ThroughputCIHi} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil
		}
	}
	b = appendJSONFloat(append(b, `{"Offered":`...), p.Offered)
	b = appendJSONFloat(append(b, `,"OfferedMeasured":`...), p.OfferedMeasured)
	b = appendJSONFloat(append(b, `,"Throughput":`...), p.Throughput)
	b = appendJSONFloat(append(b, `,"LatencyCyc":`...), p.LatencyCyc)
	b = appendJSONFloat(append(b, `,"LatencyMs":`...), p.LatencyMs)
	b = appendJSONFloat(append(b, `,"LatencyP0":`...), p.LatencyP0)
	b = appendJSONFloat(append(b, `,"LatencyP100":`...), p.LatencyP100)
	b = appendJSONFloat(append(b, `,"StdDev":`...), p.StdDev)
	b = strconv.AppendInt(append(b, `,"Messages":`...), p.Messages, 10)
	b = strconv.AppendBool(append(b, `,"Sustainable":`...), p.Sustainable)
	b = strconv.AppendInt(append(b, `,"Replicas":`...), int64(p.Replicas), 10)
	b = appendJSONFloat(append(b, `,"LatencyCILo":`...), p.LatencyCILo)
	b = appendJSONFloat(append(b, `,"LatencyCIHi":`...), p.LatencyCIHi)
	b = appendJSONFloat(append(b, `,"ThroughputCILo":`...), p.ThroughputCILo)
	b = appendJSONFloat(append(b, `,"ThroughputCIHi":`...), p.ThroughputCIHi)
	return append(b, '}')
}

// appendJSONFloat appends a finite x as encoding/json does: the
// shortest 'f' form, or 'e' below 1e-6 and from 1e21 on, with a
// one-digit negative exponent unpadded (1e-7, not 1e-07).
func appendJSONFloat(b []byte, x float64) []byte {
	format := byte('f')
	if a := math.Abs(x); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2], b = b[n-1], b[:n-1]
	}
	return b
}

// AppendJSONString appends s quoted as encoding/json marshals it. A
// string of printable ASCII with none of "\<>& is copied between
// quotes; any other goes through json.Marshal, which escapes those
// bytes, control characters and invalid UTF-8.
func AppendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// Table renders the figure as an aligned text table, one block per
// series, matching the axes of the paper's plots (normalized
// throughput vs average latency).
func (f Figure) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s\n", f.ID, f.Title)
	for _, s := range f.Series {
		fmt.Fprintf(&sb, "  %s\n", s.Label)
		fmt.Fprintf(&sb, "    %-10s %-12s %-14s %-12s %s\n", "offered", "throughput", "latency(cyc)", "latency(ms)", "sustainable")
		for _, p := range s.Points {
			fmt.Fprintf(&sb, "    %-10.3f %-12.4f %-14.1f %-12.3f %t\n",
				p.Offered, p.Throughput, p.LatencyCyc, p.LatencyMs, p.Sustainable)
		}
		if sat, ok := s.SaturationThroughput(); ok {
			fmt.Fprintf(&sb, "    max sustainable throughput: %.1f%% of ejection capacity\n", 100*sat)
		} else {
			sb.WriteString("    no sustainable point measured\n")
		}
	}
	return sb.String()
}

// Summary gives one line per series: the saturation throughput and
// the low-load latency, which together characterize the curve shape.
func (f Figure) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s\n", f.ID, f.Title)
	for _, s := range f.Series {
		sat, ok := s.SaturationThroughput()
		base := math.NaN()
		if len(s.Points) > 0 {
			base = s.Points[0].LatencyCyc
		}
		if ok {
			fmt.Fprintf(&sb, "  %-28s saturation %5.1f%%  peak %5.1f%%  base latency %7.1f cycles\n", s.Label, 100*sat, 100*s.PeakThroughput(), base)
		} else {
			fmt.Fprintf(&sb, "  %-28s saturation   n/a  peak %5.1f%%  base latency %7.1f cycles\n", s.Label, 100*s.PeakThroughput(), base)
		}
	}
	return sb.String()
}
