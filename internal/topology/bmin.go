package topology

import (
	"fmt"

	"minsim/internal/kary"
)

// NewBMIN describes an N = k^n node bidirectional butterfly MIN (Section
// 3 of the paper): n stages of k^{n-1} bidirectional k x k switches,
// with processor nodes attached to the left side of stage 0 and the
// right side of stage n-1 left unconnected (in real machines those
// ports configure larger networks).
//
// Port/wire addressing follows the butterfly structure: the left and
// right ports of stage j carry n-digit addresses; the port with
// address a belongs to the switch obtained by deleting digit j of a,
// at offset digit j of a. Interstage wires are identity on addresses:
// right port w of stage j is wired to left port w of stage j+1. Each
// wire is a pair of opposite unidirectional channels on independent
// physical links (full duplex). This wiring makes a forward hop at
// stage j free to rewrite digit j of the address, a turnaround at
// stage t set digit t, and a backward hop at stage j set digit j —
// exactly the turnaround-routing structure of Figs. 6-8.
func NewBMIN(k, n int) (*Network, error) {
	return NewBMINVC(k, n, 1)
}

// NewBMINVC describes a butterfly BMIN whose interstage links each carry
// vcs virtual channels — the "BMINs with virtual channels" variant of
// the paper's future-work list. Node links stay single-channel
// (one-port architecture). vcs = 1 gives the paper's standard BMIN.
func NewBMINVC(k, n, vcs int) (*Network, error) {
	if k&(k-1) != 0 {
		return nil, fmt.Errorf("topology: switch arity k = %d must be a power of two", k)
	}
	if vcs < 1 {
		return nil, fmt.Errorf("topology: virtual channels %d, want >= 1", vcs)
	}
	r, err := kary.New(k, n)
	if err != nil {
		return nil, err
	}
	return newNetwork(BMIN, Butterfly, r, 1, vcs, 0), nil
}

// Subtree returns the range of node addresses reachable downward (in
// the backward direction) from the stage-j switch with the given
// index: all nodes sharing the switch's digits above j. The nodes are
// those whose address has digits j..0 free and matches the switch's
// remaining digits, i.e. the leaves of the fat-tree subtree rooted at
// that switch (Section 3.3).
func (n *Network) Subtree(stage, index int) []int {
	if n.Kind != BMIN {
		panic("topology: Subtree is only defined for BMINs")
	}
	r := n.R
	// A stage-j switch index is an (n-1)-digit number; reinsert a 0 at
	// digit j to get a representative port address, then enumerate all
	// values of digits j..0.
	rep := r.InsertDigit(index, stage, 0)
	span := 1
	for i := 0; i <= stage; i++ {
		span *= r.K()
	}
	base := rep / span * span
	nodes := make([]int, span)
	for i := range nodes {
		nodes[i] = base + i
	}
	return nodes
}
