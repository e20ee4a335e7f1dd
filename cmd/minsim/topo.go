package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"

	"minsim/internal/cost"
	"minsim/internal/partition"
	"minsim/internal/routing"
	"minsim/internal/topology"
)

const topoUsageText = `usage: minsim topo [flags] <command>
commands:
  dump                     wiring listing (one line per link)
  dot                      Graphviz export
  route <src> <dst>        show all shortest paths
  partition <pat> [...]    analyze cube clusters, e.g. 0** 1** 2** 3**
  summary                  component counts
  cost                     hardware-cost comparison of the four families`

// errTopoUsage reports a topo command line that names no known command.
var errTopoUsage = errors.New(topoUsageText)

// topo executes one `minsim topo` command line, which inspects a
// topology without simulating it: dump is the textual analogue of the
// paper's Figs. 4-6, route traces Theorem 1's shortest paths, and
// partition reports Section 4's cluster partitionability.
func topo(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("topo", flag.ContinueOnError)
	nf := addNetworkFlags(fs)
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	args = fs.Args()
	if len(args) == 0 {
		return errTopoUsage
	}

	spec, net, err := buildNetwork(nf)
	if err != nil {
		return err
	}

	switch args[0] {
	case "dump":
		_, err = io.WriteString(w, net.Dump())
	case "dot":
		_, err = io.WriteString(w, net.DOT())
	case "route":
		if len(args) != 3 {
			return fmt.Errorf("route needs source and destination node numbers")
		}
		var s, d int
		if _, err := fmt.Sscanf(args[1]+" "+args[2], "%d %d", &s, &d); err != nil {
			return err
		}
		err = route(w, net, s, d)
	case "partition":
		if len(args) < 2 {
			return fmt.Errorf("partition needs at least one cluster pattern like 0** or 21*")
		}
		err = partitionReport(w, net, args[1:])
	case "summary":
		summary(w, net)
	case "cost":
		err = costReport(w, spec.K, spec.Stages)
	default:
		return errTopoUsage
	}
	return err
}

// costReport compares the hardware-cost model of the four standard
// network families at the given size (the paper's footnote-4 and
// Section 6 complexity discussion, after Chien's router model).
func costReport(w io.Writer, k, stages int) error {
	tmin, err1 := topology.NewUnidirectional(topology.UniConfig{K: k, Stages: stages, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	dmin, err2 := topology.NewUnidirectional(topology.UniConfig{K: k, Stages: stages, Pattern: topology.Cube, Dilation: 2, VCs: 1})
	vmin, err3 := topology.NewUnidirectional(topology.UniConfig{K: k, Stages: stages, Pattern: topology.Cube, Dilation: 1, VCs: 2})
	bmin, err4 := topology.NewBMIN(k, stages)
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		return err
	}
	_, err := io.WriteString(w, cost.Report([]*topology.Network{tmin, dmin, vmin, bmin}, 1))
	return err
}

func route(w io.Writer, net *topology.Network, s, d int) error {
	if s < 0 || s >= net.Nodes || d < 0 || d >= net.Nodes || s == d {
		return fmt.Errorf("need distinct nodes in [0, %d)", net.Nodes)
	}
	r := net.R
	paths := routing.AllPaths(net, s, d)
	fmt.Fprintf(w, "%s: %s -> %s\n", net.Name(), r.Format(s), r.Format(d))
	if t, ok := r.FirstDifference(s, d); ok {
		fmt.Fprintf(w, "FirstDifference = %d\n", t)
	}
	fmt.Fprintf(w, "%d shortest path(s), length %d channels\n", len(paths), paths[0].Length())
	show := min(len(paths), 8)
	for i := 0; i < show; i++ {
		var hops []string
		for _, c := range paths[i] {
			to := net.ChannelAt(c).To
			if to.IsNode() {
				hops = append(hops, fmt.Sprintf("node %s", r.Format(to.Node)))
			} else {
				stage, index := net.StageOf(to.Switch)
				hops = append(hops, fmt.Sprintf("G%d.%d", stage, index))
			}
		}
		fmt.Fprintf(w, "  path %d: %s\n", i+1, strings.Join(hops, " -> "))
	}
	if show < len(paths) {
		fmt.Fprintf(w, "  ... and %d more\n", len(paths)-show)
	}
	return nil
}

func partitionReport(w io.Writer, net *topology.Network, patterns []string) error {
	r := net.R
	var clusters [][]int
	for _, p := range patterns {
		if len(p) != r.N() {
			return fmt.Errorf("pattern %q must have %d digits (use * for free)", p, r.N())
		}
		digits := make([]int, r.N())
		for i, ch := range p {
			if ch == '*' || ch == 'X' || ch == 'x' {
				digits[i] = partition.Free
			} else if ch >= '0' && int(ch-'0') < r.K() {
				digits[i] = int(ch - '0')
			} else {
				return fmt.Errorf("bad digit %q in %q", ch, p)
			}
		}
		cube, err := partition.NewCube(r, digits...)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "cluster %s: %d nodes, base cube: %t\n", cube, cube.Size(), cube.IsBase())
		clusters = append(clusters, cube.Nodes())
	}
	rep := partition.Analyze(net, clusters)
	for i, cr := range rep.Clusters {
		fmt.Fprintf(w, "cluster %s: balanced=%t reduced=%t shared=%t, per-layer channels: ",
			patterns[i], cr.Verdict.Balanced, cr.Verdict.Reduced, cr.Verdict.Shared)
		for layer := 0; layer <= net.Stages; layer++ {
			if n, ok := cr.Usage.ByLayer[layer]; ok {
				fmt.Fprintf(w, "C%d=%d ", layer, n)
			}
		}
		fmt.Fprintln(w)
	}
	if rep.ContentionFree() {
		fmt.Fprintln(w, "clustering is contention free")
	} else {
		fmt.Fprintf(w, "clusters sharing channels: %v\n", rep.SharedPairs)
	}
	return nil
}

func summary(w io.Writer, net *topology.Network) {
	fmt.Fprintf(w, "%s\n", net.Name())
	fmt.Fprintf(w, "  switches: %d (%d stages x %d)\n", net.SwitchCount(), net.Stages, net.SwitchCount()/net.Stages)
	fmt.Fprintf(w, "  physical links: %d\n", net.LinkCount())
	fmt.Fprintf(w, "  virtual channels: %d\n", net.ChannelCount())
}
