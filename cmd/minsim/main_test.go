package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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
		rs, got, err := run(args, new(bytes.Buffer), io.Discard)
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
		"-seed", "3", "-hist", "-util", "-ci", "-trace", trace}, &out, io.Discard)
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

// TestInstrumentsPinned replays `minsim run -util -hist` on four
// families against recordings made when every hop and every blocked
// head's cycle was counted where it happened, byte for byte: the
// utilization table, the per-stage blocking and the histogram beside
// the summary lines.
func TestInstrumentsPinned(t *testing.T) {
	for _, net := range []string{"tmin", "dmin", "vmin", "bmin"} {
		var got bytes.Buffer
		if _, _, err := run([]string{"-net", net, "-util", "-hist", "-warmup", "1000", "-measure", "4000"}, &got, io.Discard); err != nil {
			t.Fatal(err)
		}
		file := filepath.Join("testdata", "run-util-"+net+".golden")
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: output differs from the recording:\n%s", file, got.String())
		}
	}
}

// TestBMINDefault: the default BMIN is the paper's 384-channel
// network, one virtual channel per link direction; with no instrument
// asked for, run's report is the nine summary lines alone.
func TestBMINDefault(t *testing.T) {
	var out bytes.Buffer
	if _, _, err := run([]string{"-net", "bmin", "-warmup", "100", "-measure", "1000"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if want := "network:            BMIN 64 nodes 4x4 (384 channels)\n"; !strings.HasPrefix(out.String(), want) {
		t.Errorf("minsim -net bmin printed\n%s\nwant the first line %q", out.String(), want)
	}
	if n := strings.Count(out.String(), "\n"); n != 9 {
		t.Errorf("minsim -net bmin printed %d lines, want 9:\n%s", n, out.String())
	}
}

// TestRunRejectsBadCommandLines: the dispatcher and run, sweep,
// saturate, figures, serve and coordinate refuse what they cannot run
// with a non-zero exit and, where the case names one, a message naming
// the fault (topo's refusals are TestTopoRejectsBadCommandLines). A sweep or figures run
// refused for its budget writes nothing to its store, and one that
// fails after starting its profiles still finishes both.
func TestRunRejectsBadCommandLines(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	var profiles []string
	profileFlags := func(cmd string) []string {
		cpu, mem := filepath.Join(dir, cmd+"-cpu.out"), filepath.Join(dir, cmd+"-mem.out")
		profiles = append(profiles, cpu, mem)
		return []string{"-cpuprofile", cpu, "-memprofile", mem}
	}
	const maxInt64 = "9223372036854775807"
	// A store cannot open on a regular file.
	notDir := filepath.Join(dir, "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "usage: minsim"},
		{[]string{"frobnicate"}, "usage: minsim"},

		{[]string{"run", "-net", "mesh"}, ""},
		{[]string{"run", "-wiring", "bogus"}, ""},
		{[]string{"run", "-pattern", "hotspot", "-hotx", "-1"}, ""},
		{[]string{"run", "-scope", "nowhere"}, ""},
		{[]string{"run", "-ratios", "1:x"}, ""},
		{[]string{"run", "-minlen", "10", "-maxlen", "5"}, ""},
		{[]string{"run", "-nosuchflag"}, ""},
		{[]string{"run", "-ci", "-warmup", "10", "-measure", "10"}, "-measure"},
		{[]string{"run", "-measure", "-1"}, "negative cycle budget"},
		{[]string{"run", "-warmup", maxInt64, "-measure", "1"}, "cycle budget"},

		{[]string{"sweep", "-points", "2", "-measure", "-1", "-cache", cache}, "negative cycle budget"},
		{[]string{"sweep", "-points", "2", "-warmup", "-1"}, "negative cycle budget"},
		{[]string{"sweep", "-points", "2", "-warmup", "1", "-measure", maxInt64}, "cycle budget"},
		{append([]string{"sweep", "-maxlen", "0"}, profileFlags("sweep")...), ""},
		{[]string{"sweep", "-from", "0.9", "-to", "0.1"}, ""},
		{[]string{"sweep", "-points", "2", "-warmup", "10", "-measure", "10", "-replicas", "-3", "-cache", cache}, "negative replicas"},
		{[]string{"sweep", "-points", "2", "-warmup", "10", "-measure", "10", "-procs", "-1", "-cache", cache}, "negative procs"},

		{[]string{"saturate", "-measure", "-1"}, "negative cycle budget"},
		{[]string{"saturate", "-warmup", maxInt64, "-measure", "1"}, "cycle budget"},
		{[]string{"saturate", "-tol", "0"}, ""},

		{[]string{"figures", "-nosuchflag"}, ""},
		{[]string{"figures", "-id", "fig16a", "-quick", "-measure", "-5", "-cache", cache}, "negative cycle budget"},
		{[]string{"figures", "-id", "fig16a", "-quick", "-warmup", "-5", "-cache", cache}, "negative cycle budget"},
		{[]string{"figures", "-id", "fig16a", "-warmup", maxInt64, "-cache", cache}, "cycle budget"},
		{[]string{"figures", "-id", "fig16a", "-quick", "-replicas", "-3", "-cache", cache}, "negative replicas"},
		{[]string{"figures", "-id", "fig16a", "-quick", "-procs", "-2", "-cache", cache}, "negative procs"},
		{[]string{"figures", "-file", filepath.Join(dir, "missing.json"), "-cache", cache}, "missing.json"},
		{append([]string{"figures", "-id", "bogus", "-cache", cache}, profileFlags("figures")...), `unknown experiment "bogus"`},

		{[]string{"serve", "-chunk", "2"}, "-chunk"},
		{[]string{"coordinate", "-coordinator", "http://127.0.0.1:1"}, "-coordinator"},
		{[]string{"serve", "-addr", "127.0.0.1:0", "-cache", notDir}, "minsim serve: "},
		{[]string{"coordinate", "-addr", "127.0.0.1:0", "-cache", notDir}, "minsim coordinate: "},
	} {
		refuses(t, c.args, c.want)
	}
	// The service commands keep the exit codes of the binaries they
	// replaced: 2 for a bad command line, 1 for a failure.
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"serve", "-nosuchflag"}, 2},
		{[]string{"coordinate", "-sim-workers", "2"}, 2},
		{[]string{"serve", "-addr", "127.0.0.1:0", "-cache", notDir}, 1},
		{[]string{"coordinate", "-addr", "127.0.0.1:0", "-cache", notDir}, 1},
	} {
		if code := minsim(c.args, io.Discard, io.Discard); code != c.code {
			t.Errorf("minsim %v: exit %d, want %d", c.args, code, c.code)
		}
	}
	if entries, _ := os.ReadDir(cache); len(entries) > 0 {
		t.Errorf("a refused command wrote %d store entries", len(entries))
	}
	for _, f := range profiles {
		if err := completeProfile(f); err != nil {
			t.Errorf("a failed command left profile %s incomplete: %v", f, err)
		}
	}
}

// completeProfile checks that path holds a whole pprof profile: a
// gzip stream that decodes to its end.
func completeProfile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	z, err := gzip.NewReader(f)
	if err != nil {
		return err
	}
	n, err := io.Copy(io.Discard, z)
	if err == nil && n == 0 {
		err = errors.New("empty profile")
	}
	return err
}

// refuses checks that minsim exits non-zero on args, names want on
// stderr and prints nothing to stdout.
func refuses(t *testing.T, args []string, want string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := minsim(args, &stdout, &stderr); code == 0 || !strings.Contains(stderr.String(), want) {
		t.Errorf("minsim %v: exit %d, stderr %q, want a failure naming %q", args, code, stderr.String(), want)
	}
	if stdout.Len() > 0 {
		t.Errorf("minsim %v printed a report:\n%s", args, stdout.String())
	}
}

// TestFlagSetsPinned: each subcommand's flags — names, types, defaults
// and usage strings — are those of the binary it replaced, recorded
// from that binary's -h (without its "Usage of" line) in testdata.
func TestFlagSetsPinned(t *testing.T) {
	for _, cmd := range []string{"run", "sweep", "saturate", "topo", "figures", "serve", "coordinate"} {
		t.Run(cmd, func(t *testing.T) {
			var stderr bytes.Buffer
			if code := minsim([]string{cmd, "-h"}, io.Discard, &stderr); code != 0 {
				t.Errorf("minsim %s -h: exit %d", cmd, code)
			}
			_, got, _ := strings.Cut(stderr.String(), "\n")
			want, err := os.ReadFile(filepath.Join("testdata", cmd+".flags"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("minsim %s flags:\n%s\nwant\n%s", cmd, got, want)
			}
		})
	}
}

// TestNetworkFlags: unset dimensions take the family defaults (the
// paper's 384-channel DMIN, VMIN and BMIN), every wiring the spec
// parser knows is accepted, and an unknown name, a switch arity that is
// not a power of two or a network too large to run is refused.
func TestNetworkFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		name string
	}{
		{nil, "TMIN(cube) 64 nodes 4x4"},
		{[]string{"-net", "dmin"}, "DMIN(cube,d=2) 64 nodes 4x4"},
		{[]string{"-net", "VMIN", "-wiring", "omega"}, "VMIN(omega,vc=2) 64 nodes 4x4"},
		{[]string{"-net", "bmin"}, "BMIN 64 nodes 4x4"},
		{[]string{"-net", "bmin", "-vcs", "2"}, "BMIN(vc=2) 64 nodes 4x4"},
		{[]string{"-net", "tmin", "-wiring", "baseline", "-k", "2", "-stages", "4"}, "TMIN(baseline) 16 nodes 2x2"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		nf := addNetworkFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		_, net, err := buildNetwork(nf)
		if err != nil || net.Name() != c.name {
			t.Errorf("%v: %v, %v; want %s", c.args, net, err, c.name)
		}
	}
	// 2^26 nodes is 1.8 G channels, past simrun.MaxChannels.
	for _, args := range [][]string{{"-net", "mesh"}, {"-wiring", "banyan"}, {"-k", "3"}, {"-k", "2", "-stages", "26"}} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		nf := addNetworkFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if _, _, err := buildNetwork(nf); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestParseRatios(t *testing.T) {
	got, err := parseRatios("4:1:1:1")
	if err != nil || len(got) != 4 || got[0] != 4 || got[3] != 1 {
		t.Errorf("parseRatios = %v, %v", got, err)
	}
	if _, err := parseRatios("1:x"); err == nil {
		t.Error("bad ratio accepted")
	}
	if _, err := parseRatios("1:-2"); err == nil {
		t.Error("negative ratio accepted")
	}
	if got, err := parseRatios("2.5"); err != nil || got[0] != 2.5 {
		t.Error("single float ratio failed")
	}
}
