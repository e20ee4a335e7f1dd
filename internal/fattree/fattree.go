// Package fattree provides the fat-tree view of a butterfly BMIN
// (Section 3.3 of the paper): processors at the leaves, switches as
// interior vertices, and messages routed up to the least common
// ancestor (LCA) of source and destination and then down. It exists
// to verify, by construction, the paper's claim that a butterfly BMIN
// with turnaround routing is a fat tree.
package fattree

import (
	"fmt"

	"minsim/internal/kary"
	"minsim/internal/topology"
)

// Tree is the fat-tree abstraction of an N = k^n leaf butterfly BMIN.
// Level 0 holds the leaves (processors); levels 1..n hold interior
// vertex groups. The interior "vertex" at level l covering a given
// leaf range corresponds to the whole group of k^{l-1} BMIN switches
// at stage l-1 that serve that subtree.
type Tree struct {
	R kary.Radix
}

// New builds the fat-tree view.
func New(r kary.Radix) Tree { return Tree{R: r} }

// Levels returns the number of interior levels (n).
func (t Tree) Levels() int { return t.R.N() }

// Vertices returns the number of interior vertices at level l
// (1 <= l <= n): k^{n-l} subtrees.
func (t Tree) Vertices(l int) int {
	t.checkLevel(l)
	v := 1
	for i := 0; i < t.R.N()-l; i++ {
		v *= t.R.K()
	}
	return v
}

// VertexOf returns the index of the level-l interior vertex whose
// subtree contains the leaf: the leaf address with its l least
// significant digits dropped.
func (t Tree) VertexOf(leaf, l int) int {
	t.checkLevel(l)
	span := t.leafSpan(l)
	return leaf / span
}

// Leaves returns the leaves of the subtree rooted at vertex v of
// level l: k^l consecutive addresses.
func (t Tree) Leaves(l, v int) []int {
	t.checkLevel(l)
	span := t.leafSpan(l)
	out := make([]int, span)
	for i := range out {
		out[i] = v*span + i
	}
	return out
}

// Capacity returns the number of upward (parent) channels leaving the
// level-l vertex — the fat tree's defining property: it equals the
// number of leaves of the subtree rooted there (k^l), so bandwidth
// does not thin toward the root.
func (t Tree) Capacity(l int) int {
	t.checkLevel(l)
	return t.leafSpan(l)
}

// LCALevel returns the level of the least common ancestor of two
// distinct leaves: FirstDifference(s, d) + 1.
func (t Tree) LCALevel(s, d int) int {
	if s == d {
		panic("fattree: LCALevel of a leaf with itself")
	}
	fd, _ := t.R.FirstDifference(s, d)
	return fd + 1
}

// RouteLength returns the number of channels on the up-then-down LCA
// route between distinct leaves: 2 * LCALevel — which matches the
// paper's BMIN path length 2(t+1).
func (t Tree) RouteLength(s, d int) int {
	return 2 * t.LCALevel(s, d)
}

// UpPaths returns the number of distinct upward routes from a leaf to
// its level-l ancestor group: k^{l-1} switch choices at each... more
// precisely, the turnaround routing's freedom gives k^{l-1} distinct
// forward-channel prefixes to reach level l (one fewer than the
// channel count since the final hop into the turnaround switch is
// included). Combined with the turnaround stage choice this yields
// the k^t paths of Theorem 1 for t = l-1.
func (t Tree) UpPaths(l int) int {
	t.checkLevel(l)
	p := 1
	for i := 0; i < l-1; i++ {
		p *= t.R.K()
	}
	return p
}

func (t Tree) leafSpan(l int) int {
	span := 1
	for i := 0; i < l; i++ {
		span *= t.R.K()
	}
	return span
}

func (t Tree) checkLevel(l int) {
	if l < 1 || l > t.R.N() {
		panic(fmt.Sprintf("fattree: level %d out of range [1, %d]", l, t.R.N()))
	}
}

// VerifyAgainstBMIN checks that the fat-tree structure agrees with a
// concretely built BMIN: subtree memberships match, upward link
// counts match the capacity law, and every stage-(l-1) switch's
// subtree is exactly a level-l vertex's leaf set. It returns the
// first discrepancy or nil.
func VerifyAgainstBMIN(t Tree, net *topology.Network) error {
	if net.Kind != topology.BMIN {
		return fmt.Errorf("fattree: network is %v, not BMIN", net.Kind)
	}
	if net.R != t.R {
		return fmt.Errorf("fattree: radix mismatch")
	}
	k := t.R.K()
	for i := 0; i < net.SwitchCount(); i++ {
		stage, index := net.StageOf(i)
		l := stage + 1
		leaves := net.Subtree(stage, index)
		v := t.VertexOf(leaves[0], l)
		want := t.Leaves(l, v)
		if len(leaves) != len(want) {
			return fmt.Errorf("switch %d: subtree size %d, want %d", i, len(leaves), len(want))
		}
		for j := range leaves {
			if leaves[j] != want[j] {
				return fmt.Errorf("switch %d: subtree member %d is %d, want %d", i, j, leaves[j], want[j])
			}
		}
	}
	// Capacity law: the total number of upward channels leaving the
	// level-l vertex group equals the number of leaves below it.
	// Level-l vertex = the k^{l-1} stage-(l-1) switches of one subtree;
	// each non-last stage switch has k single-channel right ports.
	for l := 1; l < t.Levels(); l++ {
		switchesPerVertex := 1
		for i := 0; i < l-1; i++ {
			switchesPerVertex *= k
		}
		up := switchesPerVertex * k
		if up != t.Capacity(l) {
			return fmt.Errorf("level %d: %d upward channels, capacity law wants %d", l, up, t.Capacity(l))
		}
	}
	return nil
}
