// Faults: quantify the paper's Section 2.1 motivation for multipath
// MINs — "if a link becomes congested or fails, the unique path
// property can easily disrupt the communication" — by counting
// single-point-of-failure channels per network and simulating traffic
// around an injected fault.
package main

import (
	"fmt"
	"log"

	"minsim"
)

func main() {
	kinds := []struct {
		name string
		cfg  minsim.NetworkConfig
	}{
		{"TMIN", minsim.NetworkConfig{Kind: minsim.TMIN, K: 2, Stages: 3}},
		{"DMIN d=2", minsim.NetworkConfig{Kind: minsim.DMIN, K: 2, Stages: 3}},
		{"VMIN vc=2", minsim.NetworkConfig{Kind: minsim.VMIN, K: 2, Stages: 3}},
		{"BMIN", minsim.NetworkConfig{Kind: minsim.BMIN, K: 2, Stages: 3}},
		{"TMIN +1 extra stage", minsim.NetworkConfig{Kind: minsim.TMIN, K: 2, Stages: 3, Extra: 1}},
	}

	fmt.Println("single points of failure in 8-node networks (2x2 switches)")
	fmt.Printf("%-22s %-10s %-18s\n", "network", "channels", "critical channels")
	for _, k := range kinds {
		net, err := minsim.NewNetwork(k.cfg)
		if err != nil {
			log.Fatal(err)
		}
		crit := net.CriticalChannelCount()
		fmt.Printf("%-22s %-10d %-18d\n", k.name, net.Channels(), crit)
	}
	fmt.Println("\n(node injection/ejection links are always critical under the one-port")
	fmt.Println("architecture; multipath networks have no critical interstage channels)")

	// Simulate a DMIN around an interstage fault at 64 nodes.
	net, err := minsim.NewNetwork(minsim.NetworkConfig{Kind: minsim.DMIN})
	if err != nil {
		log.Fatal(err)
	}
	topo := net.Topology()
	victim := topo.LayerBase(1) // the first interstage channel
	fmt.Printf("\n64-node DMIN, uniform load 0.4, interstage channel %d failed:\n", victim)
	for _, failed := range [][]int{nil, {victim}} {
		res, err := minsim.Run(minsim.RunConfig{
			Network:        net,
			Workload:       minsim.Workload{Pattern: minsim.Uniform},
			Load:           0.4,
			WarmupCycles:   10000,
			MeasureCycles:  40000,
			Seed:           9,
			FailedChannels: failed,
		})
		if err != nil {
			log.Fatal(err)
		}
		label := "healthy"
		if failed != nil {
			label = "one fault"
		}
		fmt.Printf("  %-10s throughput %.4f, latency %.1f ms\n", label, res.Throughput, res.MeanLatencyMs)
	}
	fmt.Println("\nThe dilated sibling channel absorbs the fault with a marginal cost;")
	fmt.Println("on a TMIN the same fault would strand every pair routed through it.")
}
