package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"minsim/internal/metrics"
	"minsim/internal/simrun"
	"minsim/internal/topology"
	"minsim/internal/traffic"
)

// planPoint executes rs as a one-point plan.
func planPoint(t *testing.T, rs simrun.RunSpec) metrics.Point {
	t.Helper()
	plan := simrun.NewPlan()
	h := plan.AddSpec(rs)
	if err := plan.Execute(context.Background(), simrun.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	pts, err := h.Points()
	if err != nil {
		t.Fatal(err)
	}
	return pts[0]
}

// bits renders every field of a point, floats by bit pattern.
func bits(p metrics.Point) string {
	return fmt.Sprintf("%x %x %x %x %x %x %d %t", math.Float64bits(p.Offered), math.Float64bits(p.OfferedMeasured),
		math.Float64bits(p.Throughput), math.Float64bits(p.LatencyCyc), math.Float64bits(p.LatencyMs),
		math.Float64bits(p.StdDev), p.Messages, p.Sustainable)
}

// TestPointIsThePlanPoint: the point a command line simulates is the
// one a plan computes for the same RunSpec, bit for bit, with the
// instruments attached or not; and the spec the flags name is the one
// written out by hand.
func TestPointIsThePlanPoint(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.csv")
	for _, c := range []struct {
		args []string
		want simrun.RunSpec
	}{
		{
			[]string{"-net", "dmin", "-pattern", "hotspot", "-hotx", "0.1", "-minlen", "16", "-maxlen", "64", "-load", "0.3", "-seed", "5"},
			simrun.RunSpec{
				Net:  simrun.NetworkSpec{Kind: topology.DMIN, K: 4, Stages: 3},
				Work: simrun.WorkloadSpec{Pattern: simrun.PatternSpec{Kind: simrun.HotSpot, HotX: 0.1}, Lengths: &traffic.Lengths{Kind: "uniform", Min: 16, Max: 64}},
				Load: 0.3, Seed: 5,
			},
		},
		{
			[]string{"-net", "bmin", "-scope", "cluster16", "-ratios", "4:1:1:1", "-load", "0.2", "-seed", "9"},
			simrun.RunSpec{
				Net:  simrun.NetworkSpec{Kind: topology.BMIN, K: 4, Stages: 3},
				Work: simrun.WorkloadSpec{Cluster: simrun.Cluster16, Ratios: []float64{4, 1, 1, 1}},
				Load: 0.2, Seed: 9,
			},
		},
		{
			[]string{"-net", "vmin", "-wiring", "butterfly", "-pattern", "shuffle", "-load", "0.5", "-hist", "-util", "-ci", "-trace", trace},
			simrun.RunSpec{
				Net:  simrun.NetworkSpec{Kind: topology.VMIN, Pattern: topology.Butterfly, K: 4, Stages: 3},
				Work: simrun.WorkloadSpec{Pattern: simrun.PatternSpec{Kind: simrun.ShufflePerm}},
				Load: 0.5, Seed: 1,
			},
		},
	} {
		args := append([]string{"-warmup", "1000", "-measure", "4000"}, c.args...)
		c.want.Warmup, c.want.Measure = 1000, 4000
		rs, got, err := run(args, new(bytes.Buffer))
		if err != nil {
			t.Fatal(err)
		}
		key, err := rs.Key()
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := c.want.Key(); key != want {
			t.Errorf("%v names %s, want %s", c.args, rs, c.want)
		}
		if want := planPoint(t, rs); bits(got) != bits(want) {
			t.Errorf("%v: minsim point %s, plan point %s", c.args, bits(got), bits(want))
		}
	}
}

// TestInstruments: -hist, -util, -ci and -trace report ordered
// quantiles and the histogram, per-layer utilization, a trace CSV and a
// batch-means interval that brackets the mean.
func TestInstruments(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.csv")
	var out bytes.Buffer
	_, res, err := run([]string{"-minlen", "16", "-maxlen", "64", "-load", "0.2", "-warmup", "2000", "-measure", "12000",
		"-seed", "3", "-hist", "-util", "-ci", "-trace", trace}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if res.Messages == 0 {
		t.Fatal("no messages measured")
	}
	var p50, p95, p99 float64
	i := strings.Index(text, "latency quantiles:")
	if i < 0 {
		t.Fatalf("no quantiles in\n%s", text)
	}
	if _, err := fmt.Sscanf(text[i:], "latency quantiles:  p50=%g p95=%g p99=%g", &p50, &p95, &p99); err != nil {
		t.Fatal(err)
	}
	if p50 <= 0 || p95 < p50 || p99 < p95 {
		t.Errorf("quantiles disordered: %v %v %v", p50, p95, p99)
	}
	if !strings.Contains(text, "histogram:") {
		t.Error("missing histogram text")
	}
	if !strings.Contains(text, "C0") {
		t.Error("missing utilization text")
	}
	var lo, hi float64
	i = strings.Index(text, "latency 95% CI:")
	if i < 0 {
		t.Fatalf("no confidence interval in\n%s", text)
	}
	if _, err := fmt.Sscanf(text[i:], "latency 95%% CI:     [%g, %g]", &lo, &hi); err != nil {
		t.Fatal(err)
	}
	// The interval is over batch means, so it brackets something near
	// the overall mean.
	if !(lo <= res.LatencyCyc+1 && res.LatencyCyc-1 <= hi) {
		t.Errorf("CI [%v, %v] far from mean %v", lo, hi, res.LatencyCyc)
	}
	csv, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(csv, []byte("src,dst,")) {
		t.Error("missing trace CSV header")
	}
}

// TestBMINDefault: the default BMIN is the paper's 384-channel network,
// one virtual channel per link direction; with no instrument asked for,
// the report is the nine summary lines alone.
func TestBMINDefault(t *testing.T) {
	var out bytes.Buffer
	if _, _, err := run([]string{"-net", "bmin", "-warmup", "100", "-measure", "1000"}, &out); err != nil {
		t.Fatal(err)
	}
	if want := "network:            BMIN 64 nodes 4x4 (384 channels)\n"; !strings.HasPrefix(out.String(), want) {
		t.Errorf("minsim -net bmin printed\n%s\nwant the first line %q", out.String(), want)
	}
	if n := strings.Count(out.String(), "\n"); n != 9 {
		t.Errorf("minsim -net bmin printed %d lines, want 9:\n%s", n, out.String())
	}
}

func TestRunRejectsBadCommandLines(t *testing.T) {
	for _, args := range [][]string{
		{"-net", "mesh"},
		{"-wiring", "bogus"},
		{"-pattern", "hotspot", "-hotx", "-1"},
		{"-scope", "nowhere"},
		{"-ratios", "1:x"},
		{"-minlen", "10", "-maxlen", "5"},
		{"-nosuchflag"},
	} {
		if _, _, err := run(args, new(bytes.Buffer)); err == nil {
			t.Errorf("minsim %v: no error", args)
		}
	}
}
