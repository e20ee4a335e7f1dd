package minsim

import (
	"fmt"

	"minsim/internal/fattree"
	"minsim/internal/partition"
	"minsim/internal/routing"
	"minsim/internal/topology"
)

// PathCount returns the number of distinct shortest routes the
// network's routing algorithm can generate from src to dst: 1 for a
// TMIN, the channel-level variants for DMIN/VMIN, and Theorem 1's k^t
// for a BMIN (t = FirstDifference(src, dst)).
func (n *Network) PathCount(src, dst int) (int, error) {
	if src == dst {
		return 0, fmt.Errorf("minsim: src == dst")
	}
	if src < 0 || src >= n.topo.Nodes || dst < 0 || dst >= n.topo.Nodes {
		return 0, fmt.Errorf("minsim: node out of range")
	}
	return len(routing.AllPaths(n.topo, src, dst)), nil
}

// PathLength returns the number of channels a packet from src to dst
// traverses: stages+1 for unidirectional MINs and 2(t+1) for BMINs.
func (n *Network) PathLength(src, dst int) (int, error) {
	if src == dst {
		return 0, fmt.Errorf("minsim: src == dst")
	}
	if src < 0 || src >= n.topo.Nodes || dst < 0 || dst >= n.topo.Nodes {
		return 0, fmt.Errorf("minsim: node out of range")
	}
	return routing.OnePath(n.topo, src, dst).Length(), nil
}

// FirstDifference returns the paper's Definition 3: the most
// significant digit position where the two addresses differ. ok is
// false when they are equal.
func (n *Network) FirstDifference(s, d int) (t int, ok bool) {
	return n.topo.R.FirstDifference(s, d)
}

// ClusterVerdict reports how well a clustering suits this network's
// wiring (Section 4): Balanced (contention-free channel-balanced, the
// cube-MIN/Theorem 2 case), Reduced (fewer channels than nodes at some
// stage, the butterfly top-digit case), and Shared (channels shared
// between clusters, the butterfly bottom-digit case).
type ClusterVerdict struct {
	Balanced       bool
	Reduced        bool
	SharedChannels bool // any pair of clusters shares a channel
}

// AnalyzeClusters classifies the given disjoint clustering.
func (n *Network) AnalyzeClusters(clusters [][]int) ClusterVerdict {
	rep := partition.Analyze(n.topo, clusters)
	v := ClusterVerdict{Balanced: true}
	for _, cr := range rep.Clusters {
		if !cr.Verdict.Balanced {
			v.Balanced = false
		}
		if cr.Verdict.Reduced {
			v.Reduced = true
		}
	}
	v.SharedChannels = !rep.ContentionFree()
	return v
}

// FatTreeLevels returns the interior levels of the BMIN's fat-tree
// view (Section 3.3), or an error for other network kinds.
func (n *Network) FatTreeLevels() (int, error) {
	if n.topo.Kind != topology.BMIN {
		return 0, fmt.Errorf("minsim: %s is not a BMIN", n.Name())
	}
	return fattree.New(n.topo.R).Levels(), nil
}

// Reachable reports whether the network's routing can deliver from
// src to dst when the listed channels are faulty.
func (n *Network) Reachable(failedChannels []int, src, dst int) bool {
	failed := make(map[int]bool, len(failedChannels))
	for _, c := range failedChannels {
		failed[c] = true
	}
	return routing.Reachable(n.topo, failed, src, dst)
}

// CriticalChannelCount returns how many channels are single points of
// failure: failing the channel alone disconnects at least one
// source/destination pair. Node links are always critical under the
// one-port architecture; multipath networks (DMIN, VMIN, BMIN,
// extra-stage) have no critical interstage channels.
func (n *Network) CriticalChannelCount() int {
	crit := routing.CriticalChannels(n.topo)
	count := 0
	for _, pairs := range crit {
		if pairs > 0 {
			count++
		}
	}
	return count
}

// WiringDump returns the textual wiring listing (one line per
// physical link) — the textual analogue of the paper's Figs. 4-6.
func (n *Network) WiringDump() string { return n.topo.Dump() }

// DOT returns the network in Graphviz format.
func (n *Network) DOT() string { return n.topo.DOT() }
