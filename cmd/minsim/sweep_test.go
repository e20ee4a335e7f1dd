package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"minsim/internal/experiments"
	"minsim/internal/simrun"
	"minsim/internal/topology"
	"minsim/internal/traffic"
)

// TestSweepIsThePlanSweep: the rows `minsim sweep -csv` prints are the
// points Plan.AddSweep computes for the spec written out by hand, one
// replica per load or two with their intervals.
func TestSweepIsThePlanSweep(t *testing.T) {
	loads, err := experiments.LoadRange(0.1, 0.7, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, replicas := range []int{1, 2} {
		args := []string{"-net", "bmin", "-pattern", "hotspot", "-hotx", "0.1", "-minlen", "16", "-maxlen", "64",
			"-from", "0.1", "-to", "0.7", "-points", "3", "-warmup", "1000", "-measure", "4000", "-seed", "5",
			"-replicas", fmt.Sprint(replicas), "-csv"}
		var got bytes.Buffer
		if err := sweep(args, &got, io.Discard); err != nil {
			t.Fatal(err)
		}

		plan := simrun.NewPlan()
		h := plan.AddSweep(simrun.SweepSpec{
			Net:    simrun.NetworkSpec{Kind: topology.BMIN, K: 4, Stages: 3},
			Work:   simrun.WorkloadSpec{Pattern: simrun.PatternSpec{Kind: simrun.HotSpot, HotX: 0.1}, Lengths: &traffic.Lengths{Kind: "uniform", Min: 16, Max: 64}},
			Loads:  loads,
			Budget: simrun.Budget{WarmupCycles: 1000, MeasureCycles: 4000, Seed: 5, Replicas: replicas},
		})
		if err := plan.Execute(context.Background(), simrun.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		pts, err := h.Points()
		if err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		want.WriteString("offered,throughput,latency_cycles,latency_ms,messages,sustainable")
		if replicas > 1 {
			want.WriteString(",replicas,latency_ci_lo,latency_ci_hi")
		}
		want.WriteString("\n")
		for _, r := range pts {
			fmt.Fprintf(&want, "%.4f,%.4f,%.1f,%.3f,%d,%t", r.Offered, r.Throughput, r.LatencyCyc, r.LatencyMs, r.Messages, r.Sustainable)
			if replicas > 1 {
				fmt.Fprintf(&want, ",%d,%.1f,%.1f", r.Replicas, r.LatencyCILo, r.LatencyCIHi)
			}
			want.WriteString("\n")
		}
		if got.String() != want.String() {
			t.Errorf("-replicas %d: sweep printed\n%s\nthe plan's points are\n%s", replicas, got.String(), want.String())
		}
	}
}

// TestSaturateWarmRerun: every bisection probe is a keyed point, so a
// second search against the same store prints the same matrix and
// executes nothing.
func TestSaturateWarmRerun(t *testing.T) {
	args := []string{"-warmup", "500", "-measure", "2000", "-cache", t.TempDir()}
	var cold, warm, coldErr, warmErr bytes.Buffer
	if err := saturate(args, &cold, &coldErr); err != nil {
		t.Fatal(err)
	}
	if err := saturate(args, &warm, &warmErr); err != nil {
		t.Fatal(err)
	}
	if cold.String() != warm.String() {
		t.Errorf("warm matrix differs:\n%s\ncold:\n%s", warm.String(), cold.String())
	}
	if strings.Contains(coldErr.String(), " 0 executed") || !strings.Contains(warmErr.String(), " 0 executed") {
		t.Errorf("cold run %q, warm run %q: want probes executed only on the cold run", coldErr.String(), warmErr.String())
	}
}
