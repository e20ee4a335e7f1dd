// Command topo inspects MIN topologies: wiring dumps (the textual
// analogue of the paper's Figs. 4-6), Graphviz export, routing traces
// with shortest-path counts (Theorem 1), and cluster partitionability
// reports (Section 4, Theorems 2-4).
//
// Usage:
//
//	topo -net bmin -k 2 -stages 3 dump
//	topo -net bmin dot > bmin.dot
//	topo -net bmin -k 2 -stages 3 route 1 5
//	topo -net tmin -wiring butterfly partition 0** 10* 11*
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"minsim/internal/cost"
	"minsim/internal/partition"
	"minsim/internal/routing"
	"minsim/internal/topology"
)

func main() {
	var (
		netName = flag.String("net", "tmin", "network: tmin, dmin, vmin, bmin")
		wiring  = flag.String("wiring", "cube", "interstage wiring: cube or butterfly")
		k       = flag.Int("k", 4, "switch arity")
		stages  = flag.Int("stages", 3, "stages")
		dil     = flag.Int("dilation", 2, "DMIN dilation")
		vcs     = flag.Int("vcs", 2, "VMIN virtual channels")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	net, err := build(*netName, *wiring, *k, *stages, *dil, *vcs)
	if err != nil {
		fatal(err)
	}
	router := routing.New(net)
	// The struct view of the description, checked before it is walked.
	graph := func() *topology.Graph {
		g := net.Graph()
		if err := g.Validate(); err != nil {
			fatal(err)
		}
		return g
	}

	switch args[0] {
	case "dump":
		fmt.Print(graph().Dump())
	case "dot":
		fmt.Print(graph().DOT())
	case "route":
		if len(args) != 3 {
			fatal(fmt.Errorf("route needs source and destination node numbers"))
		}
		var s, d int
		if _, err := fmt.Sscanf(args[1]+" "+args[2], "%d %d", &s, &d); err != nil {
			fatal(err)
		}
		route(graph(), router, s, d)
	case "partition":
		if len(args) < 2 {
			fatal(fmt.Errorf("partition needs at least one cluster pattern like 0** or 21*"))
		}
		partitionReport(net, router, args[1:])
	case "summary":
		summary(net)
	case "cost":
		costReport(*k, *stages)
	default:
		usage()
	}
}

// costReport compares the hardware-cost model of the four standard
// network families at the given size (the paper's footnote-4 and
// Section 6 complexity discussion, after Chien's router model).
func costReport(k, stages int) {
	tmin, err1 := topology.NewUnidirectional(topology.UniConfig{K: k, Stages: stages, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	dmin, err2 := topology.NewUnidirectional(topology.UniConfig{K: k, Stages: stages, Pattern: topology.Cube, Dilation: 2, VCs: 1})
	vmin, err3 := topology.NewUnidirectional(topology.UniConfig{K: k, Stages: stages, Pattern: topology.Cube, Dilation: 1, VCs: 2})
	bmin, err4 := topology.NewBMIN(k, stages)
	for _, err := range []error{err1, err2, err3, err4} {
		if err != nil {
			fatal(err)
		}
	}
	fmt.Print(cost.Report([]*topology.Network{tmin, dmin, vmin, bmin}, 1))
}

func build(name, wiring string, k, stages, dil, vcs int) (*topology.Network, error) {
	pat := topology.Cube
	if strings.EqualFold(wiring, "butterfly") {
		pat = topology.Butterfly
	}
	switch strings.ToLower(name) {
	case "bmin":
		return topology.NewBMIN(k, stages)
	case "tmin":
		return topology.NewUnidirectional(topology.UniConfig{K: k, Stages: stages, Pattern: pat, Dilation: 1, VCs: 1})
	case "dmin":
		return topology.NewUnidirectional(topology.UniConfig{K: k, Stages: stages, Pattern: pat, Dilation: dil, VCs: 1})
	case "vmin":
		return topology.NewUnidirectional(topology.UniConfig{K: k, Stages: stages, Pattern: pat, Dilation: 1, VCs: vcs})
	}
	return nil, fmt.Errorf("unknown network %q", name)
}

func route(net *topology.Graph, router routing.Router, s, d int) {
	if s < 0 || s >= net.Nodes || d < 0 || d >= net.Nodes || s == d {
		fatal(fmt.Errorf("need distinct nodes in [0, %d)", net.Nodes))
	}
	r := net.R
	paths := routing.AllPaths(net, router, s, d)
	fmt.Printf("%s: %s -> %s\n", net.Name(), r.Format(s), r.Format(d))
	if t, ok := r.FirstDifference(s, d); ok {
		fmt.Printf("FirstDifference = %d\n", t)
	}
	fmt.Printf("%d shortest path(s), length %d channels\n", len(paths), paths[0].Length())
	show := len(paths)
	if show > 8 {
		show = 8
	}
	for i := 0; i < show; i++ {
		var hops []string
		for _, c := range paths[i] {
			ch := &net.Channels[c]
			if ch.To.IsNode() {
				hops = append(hops, fmt.Sprintf("node %s", r.Format(ch.To.Node)))
			} else {
				sw := &net.Switches[ch.To.Switch]
				hops = append(hops, fmt.Sprintf("G%d.%d", sw.Stage, sw.Index))
			}
		}
		fmt.Printf("  path %d: %s\n", i+1, strings.Join(hops, " -> "))
	}
	if show < len(paths) {
		fmt.Printf("  ... and %d more\n", len(paths)-show)
	}
}

func partitionReport(net *topology.Network, router routing.Router, patterns []string) {
	r := net.R
	var clusters [][]int
	for _, p := range patterns {
		if len(p) != r.N() {
			fatal(fmt.Errorf("pattern %q must have %d digits (use * for free)", p, r.N()))
		}
		digits := make([]int, r.N())
		for i, ch := range p {
			if ch == '*' || ch == 'X' || ch == 'x' {
				digits[i] = partition.Free
			} else if ch >= '0' && int(ch-'0') < r.K() {
				digits[i] = int(ch - '0')
			} else {
				fatal(fmt.Errorf("bad digit %q in %q", ch, p))
			}
		}
		cube, err := partition.NewCube(r, digits...)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("cluster %s: %d nodes, base cube: %t\n", cube, cube.Size(), cube.IsBase())
		clusters = append(clusters, cube.Nodes())
	}
	rep := partition.Analyze(net, router, clusters)
	for i, cr := range rep.Clusters {
		fmt.Printf("cluster %s: balanced=%t reduced=%t shared=%t, per-layer channels: ",
			patterns[i], cr.Verdict.Balanced, cr.Verdict.Reduced, cr.Verdict.Shared)
		for layer := 0; layer <= net.Stages; layer++ {
			if n, ok := cr.Usage.ByLayer[layer]; ok {
				fmt.Printf("C%d=%d ", layer, n)
			}
		}
		fmt.Println()
	}
	if rep.ContentionFree() {
		fmt.Println("clustering is contention free")
	} else {
		fmt.Printf("clusters sharing channels: %v\n", rep.SharedPairs)
	}
}

func summary(net *topology.Network) {
	fmt.Printf("%s\n", net.Name())
	fmt.Printf("  switches: %d (%d stages x %d)\n", net.SwitchCount(), net.Stages, net.SwitchCount()/net.Stages)
	fmt.Printf("  physical links: %d\n", net.LinkCount())
	fmt.Printf("  virtual channels: %d\n", net.ChannelCount())
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: topo [flags] <command>
commands:
  dump                     wiring listing (one line per link)
  dot                      Graphviz export
  route <src> <dst>        show all shortest paths
  partition <pat> [...]    analyze cube clusters, e.g. 0** 1** 2** 3**
  summary                  component counts
  cost                     hardware-cost comparison of the four families`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "topo: %v\n", err)
	os.Exit(1)
}
