package traffic

import (
	"fmt"
	"sync"

	"minsim/internal/kary"
)

// Clustering partitions the nodes into disjoint processor clusters
// (Section 4/5 of the paper). Of maps each node to its cluster index;
// Members lists the nodes of each cluster in ascending order. Both are
// read-only once built: patterns and workloads share them.
type Clustering struct {
	Of      []int
	Members [][]int
}

// NewClustering builds a Clustering from a node->cluster map. The
// Clustering keeps of as its Of: the caller hands the map over and must
// not change it afterwards. The member lists share one backing array.
func NewClustering(of []int) (Clustering, error) {
	nc := 0
	for _, c := range of {
		if c < 0 {
			return Clustering{}, fmt.Errorf("traffic: negative cluster index %d", c)
		}
		if c+1 > nc {
			nc = c + 1
		}
	}
	size := make([]int, nc)
	for _, c := range of {
		size[c]++
	}
	members := make([][]int, nc)
	all := make([]int, len(of))
	for i, n := range size {
		if n == 0 {
			return Clustering{}, fmt.Errorf("traffic: cluster %d is empty", i)
		}
		members[i], all = all[:0:n], all[n:]
	}
	for n, c := range of {
		members[c] = append(members[c], n)
	}
	return Clustering{Of: of, Members: members}, nil
}

// Global puts all nodes in one cluster. Its Of and its one member list
// are read-only views of arrays shared by every Global clustering (see
// globalTables), so a clustering of a node count seen before allocates
// nothing that grows with it.
func Global(nodes int) Clustering {
	if nodes <= 0 {
		c, _ := NewClustering(make([]int, nodes))
		return c
	}
	g := &globalTables
	g.Lock()
	defer g.Unlock()
	if len(g.all) < nodes {
		g.of, g.all = make([]int, nodes), make([]int, nodes)
		for n := range g.all {
			g.all[n] = n
		}
	}
	return Clustering{Of: g.of[:nodes:nodes], Members: [][]int{g.all[:nodes:nodes]}}
}

// globalTables holds the all-zero cluster map and the identity member
// list Global slices, sized to the largest node count asked for so far.
// Nothing writes to them once made; a larger count replaces them with
// larger arrays and leaves the old ones to the clusterings that hold
// them.
var globalTables struct {
	sync.Mutex
	of, all []int
}

// ByDigit clusters nodes by the value of one address digit, yielding
// k clusters of N/k nodes. Digit n-1 gives the paper's cube-network
// clusters 0XX, 1XX, 2XX, 3XX (base k-ary cubes, channel-balanced in
// a cube MIN, channel-reduced in a butterfly MIN); digit 0 gives the
// butterfly network's channel-shared clusters XX0, XX1, XX2, XX3.
func ByDigit(r kary.Radix, digit int) Clustering {
	of := make([]int, r.Size())
	for n := range of {
		of[n] = r.Digit(n, digit)
	}
	c, _ := NewClustering(of)
	return c
}

// Halves clusters the nodes into two equal halves by the top binary
// bit of the address (a binary-cube partitioning; the paper's
// cluster-32 workload on 64 nodes).
func Halves(nodes int) Clustering {
	of := make([]int, nodes)
	for n := range of {
		if n >= nodes/2 {
			of[n] = 1
		}
	}
	c, _ := NewClustering(of)
	return c
}

// Cluster16 is the paper's cluster-16 partitioning for the 64-node
// networks: four 16-node clusters fixing the most significant radix-4
// digit (0XX, 1XX, 2XX, 3XX).
func Cluster16(r kary.Radix) Clustering { return ByDigit(r, r.N()-1) }

// Cluster16Shared is the channel-shared clustering of a butterfly
// network: XX0, XX1, XX2, XX3 (least significant digit fixed).
func Cluster16Shared(r kary.Radix) Clustering { return ByDigit(r, 0) }
