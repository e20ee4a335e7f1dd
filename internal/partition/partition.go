// Package partition implements Section 4 of the paper: k-ary m-cube
// processor clusters (Definitions 5-6), and the channel-usage analysis
// behind Lemma 1 and Theorems 2-4 — whether a clustering of a MIN is
// contention-free and channel-balanced (cube MINs on cubes), channel-
// reduced or channel-shared (butterfly MINs), or base-cube balanced
// (BMINs).
package partition

import (
	"fmt"
	"sort"

	"minsim/internal/kary"
	"minsim/internal/routing"
	"minsim/internal/topology"
)

// Free marks a free digit position in a cube pattern.
const Free = -1

// Cube is a k-ary m-cube (Definition 5): the set of nodes whose
// addresses match the pattern, where Pattern[i] is either a fixed
// digit value for position i or Free. The number of Free positions is
// m.
type Cube struct {
	R       kary.Radix
	Pattern []int // len n; digit value or Free
}

// NewCube validates and builds a cube. The pattern is given most
// significant digit first, matching the paper's "21**" notation.
func NewCube(r kary.Radix, msdFirst ...int) (Cube, error) {
	if len(msdFirst) != r.N() {
		return Cube{}, fmt.Errorf("partition: pattern has %d digits, want %d", len(msdFirst), r.N())
	}
	p := make([]int, r.N())
	for i, v := range msdFirst {
		if v != Free && (v < 0 || v >= r.K()) {
			return Cube{}, fmt.Errorf("partition: digit %d value %d out of range", i, v)
		}
		p[r.N()-1-i] = v
	}
	return Cube{R: r, Pattern: p}, nil
}

// M returns the cube dimension (number of free digits).
func (c Cube) M() int {
	m := 0
	for _, v := range c.Pattern {
		if v == Free {
			m++
		}
	}
	return m
}

// Size returns k^m, the number of nodes in the cube.
func (c Cube) Size() int {
	s := 1
	for i := 0; i < c.M(); i++ {
		s *= c.R.K()
	}
	return s
}

// Contains reports whether node x matches the cube pattern.
func (c Cube) Contains(x int) bool {
	for i, v := range c.Pattern {
		if v != Free && c.R.Digit(x, i) != v {
			return false
		}
	}
	return true
}

// Nodes enumerates the cube's members in ascending order.
func (c Cube) Nodes() []int {
	var out []int
	for x := 0; x < c.R.Size(); x++ {
		if c.Contains(x) {
			out = append(out, x)
		}
	}
	return out
}

// IsBase reports whether the cube is a base cube (Definition 6): all
// fixed digits occupy the most significant positions.
func (c Cube) IsBase() bool {
	seenFixed := false
	for i := 0; i < len(c.Pattern); i++ { // from least significant up
		if c.Pattern[i] != Free {
			seenFixed = true
		} else if seenFixed {
			return false
		}
	}
	return true
}

// String renders the cube in the paper's notation, e.g. "21**".
func (c Cube) String() string {
	buf := make([]byte, 0, len(c.Pattern))
	for i := len(c.Pattern) - 1; i >= 0; i-- {
		if c.Pattern[i] == Free {
			buf = append(buf, '*')
		} else if c.Pattern[i] < 10 {
			buf = append(buf, byte('0'+c.Pattern[i]))
		} else {
			buf = append(buf, []byte(fmt.Sprintf("(%d)", c.Pattern[i]))...)
		}
	}
	return string(buf)
}

// BinaryCube is a binary cube in a k = 2^j network (Theorem 2): the
// node addresses are viewed as n*j bits and the cube fixes a subset
// of bit positions.
type BinaryCube struct {
	Bits int // total bits
	Mask int // 1-bits at fixed positions
	Val  int // fixed values (subset of Mask)
	size int // nodes in network
}

// NewBinaryCube builds a binary cube over a network of `nodes` = 2^bits
// nodes from a pattern string of '0', '1' and '*' (most significant
// bit first), e.g. "0XX" in the paper's figures is "0**" over 3 bits.
func NewBinaryCube(nodes int, pattern string) (BinaryCube, error) {
	bits := 0
	for 1<<bits < nodes {
		bits++
	}
	if 1<<bits != nodes {
		return BinaryCube{}, fmt.Errorf("partition: %d nodes is not a power of two", nodes)
	}
	if len(pattern) != bits {
		return BinaryCube{}, fmt.Errorf("partition: pattern %q has %d bits, want %d", pattern, len(pattern), bits)
	}
	bc := BinaryCube{Bits: bits, size: nodes}
	for i, ch := range pattern {
		pos := bits - 1 - i
		switch ch {
		case '0':
			bc.Mask |= 1 << pos
		case '1':
			bc.Mask |= 1 << pos
			bc.Val |= 1 << pos
		case '*', 'X', 'x':
		default:
			return BinaryCube{}, fmt.Errorf("partition: bad pattern char %q", ch)
		}
	}
	return bc, nil
}

// Contains reports whether node x is in the binary cube.
func (b BinaryCube) Contains(x int) bool { return x&b.Mask == b.Val }

// Nodes enumerates the members.
func (b BinaryCube) Nodes() []int {
	var out []int
	for x := 0; x < b.size; x++ {
		if b.Contains(x) {
			out = append(out, x)
		}
	}
	return out
}

// wireKey identifies a paper-sense channel: a (layer, wire, direction)
// triple. Dilated/virtual replicas of the same wire count once, as in
// the paper's per-stage channel counts.
type wireKey struct {
	Layer int
	Wire  int
	Dir   topology.Dir
}

// Usage is the per-layer set of wires a cluster's intra-cluster
// traffic can touch, following every path the routing function may
// generate for every ordered pair of distinct cluster members.
type Usage struct {
	Net     *topology.Network
	Wires   map[wireKey]bool
	ByLayer map[int]int // layer -> distinct wire count (both directions pooled for BMIN pairs)
}

// ClusterUsage computes the channels used by intra-cluster traffic:
// one reach walk per member, toward that member from all the others.
func ClusterUsage(net *topology.Network, nodes []int) Usage {
	u := Usage{Net: net, Wires: make(map[wireKey]bool), ByLayer: make(map[int]int)}
	for _, d := range nodes {
		for _, c := range routing.Reach(net, d, nodes) {
			layer, wire, dir := net.Address(c)
			u.Wires[wireKey{layer, wire, dir}] = true
		}
	}
	counts := make(map[int]map[int]bool)
	for k := range u.Wires {
		if counts[k.Layer] == nil {
			counts[k.Layer] = make(map[int]bool)
		}
		counts[k.Layer][k.Wire] = true
	}
	for layer, wires := range counts {
		u.ByLayer[layer] = len(wires)
	}
	return u
}

// Verdict classifies a clustering per the paper's taxonomy.
type Verdict struct {
	Balanced bool // every used layer has exactly |cluster| wires
	Reduced  bool // some layer has fewer wires than |cluster| nodes
	Shared   bool // wires overlap with another cluster's wires
}

// Report is the analysis of a full clustering.
type Report struct {
	Clusters []ClusterReport
	// SharedPairs lists cluster index pairs whose wire sets intersect
	// (the contention between clusters of Theorem 3 / Fig. 15b).
	SharedPairs [][2]int
}

// ClusterReport carries one cluster's usage and verdict.
type ClusterReport struct {
	Nodes   []int
	Usage   Usage
	Verdict Verdict
}

// Analyze computes usages and verdicts for a disjoint clustering.
func Analyze(net *topology.Network, clusters [][]int) Report {
	rep := Report{}
	for _, nodes := range clusters {
		u := ClusterUsage(net, nodes)
		v := Verdict{Balanced: true}
		for _, layer := range usedLayers(u) {
			cnt := u.ByLayer[layer]
			if cnt != len(nodes) {
				v.Balanced = false
			}
			if cnt < len(nodes) {
				v.Reduced = true
			}
		}
		rep.Clusters = append(rep.Clusters, ClusterReport{Nodes: nodes, Usage: u, Verdict: v})
	}
	for i := 0; i < len(rep.Clusters); i++ {
		for j := i + 1; j < len(rep.Clusters); j++ {
			if intersects(rep.Clusters[i].Usage.Wires, rep.Clusters[j].Usage.Wires) {
				rep.Clusters[i].Verdict.Shared = true
				rep.Clusters[j].Verdict.Shared = true
				rep.SharedPairs = append(rep.SharedPairs, [2]int{i, j})
			}
		}
	}
	return rep
}

func usedLayers(u Usage) []int {
	var layers []int
	for l := range u.ByLayer {
		layers = append(layers, l)
	}
	sort.Ints(layers)
	return layers
}

func intersects(a, b map[wireKey]bool) bool {
	if len(b) < len(a) {
		a, b = b, a
	}
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}

// ContentionFree reports whether the clustering is contention free:
// no two clusters' wire sets intersect.
func (r Report) ContentionFree() bool { return len(r.SharedPairs) == 0 }
