package topology

import (
	"fmt"

	"minsim/internal/kary"
)

// NewBMIN builds an N = k^n node bidirectional butterfly MIN (Section
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

// CheckBMIN reports the error NewBMINVC would return for the arguments,
// or nil if it would build — without allocating (see UniConfig.Check).
func CheckBMIN(k, n, vcs int) error {
	if k&(k-1) != 0 {
		return fmt.Errorf("topology: switch arity k = %d must be a power of two", k)
	}
	if vcs < 1 {
		return fmt.Errorf("topology: virtual channels %d, want >= 1", vcs)
	}
	_, err := kary.New(k, n)
	return err
}

// NewBMINVC builds a butterfly BMIN whose interstage links each carry
// vcs virtual channels — the "BMINs with virtual channels" variant of
// the paper's future-work list. Node links stay single-channel
// (one-port architecture). vcs = 1 gives the paper's standard BMIN.
func NewBMINVC(k, n, vcs int) (*Network, error) {
	if err := CheckBMIN(k, n, vcs); err != nil {
		return nil, err
	}
	r := kary.MustNew(k, n)
	N := r.Size()

	net := &Network{
		Kind:     BMIN,
		Pat:      Butterfly,
		R:        r,
		Dilation: 1,
		VCs:      vcs,
		Nodes:    N,
		Stages:   n,
		Inject:   make([]int, N),
		Eject:    make([]int, N),
		switchAt: make([][]int, n),
	}
	// Closed-form sizes: a full-duplex pair of single-channel links per
	// node, and per interstage wire a pair of links of vcs channels.
	net.Channels = make([]Channel, 0, 2*N+(n-1)*N*2*vcs)
	net.Links = make([]Link, 0, 2*N+(n-1)*N*2)
	net.Switches = make([]Switch, 0, n*(N/k))
	b := &builder{net: net}

	perStage := N / k // k^{n-1}
	for s := 0; s < n; s++ {
		net.switchAt[s] = make([]int, perStage)
		for w := 0; w < perStage; w++ {
			b.addSwitch(s, w)
		}
	}

	// swOf returns the Loc of the stage-j port with wire address a.
	swOf := func(stage, a int, side Side) Loc {
		sw := net.switchAt[stage][r.DeleteDigit(a, stage)]
		return swLoc(sw, side, r.Digit(a, stage))
	}

	// Layer 0: node <-> stage-0 left port (same address).
	for a := 0; a < N; a++ {
		in := b.addLink(nodeLoc(a), swOf(0, a, Left), Forward, 0, a, 1)
		b.connect(in)
		net.Inject[a] = in[0]
		out := b.addLink(swOf(0, a, Left), nodeLoc(a), Backward, 0, a, 1)
		b.connect(out)
		net.Eject[a] = out[0]
	}

	// Layers 1..n-1: between stage g-1 (right side) and stage g (left
	// side), identity wiring on the n-digit wire address.
	for g := 1; g < n; g++ {
		for w := 0; w < N; w++ {
			fwd := b.addLink(swOf(g-1, w, Right), swOf(g, w, Left), Forward, g, w, vcs)
			b.connect(fwd)
			bwd := b.addLink(swOf(g, w, Left), swOf(g-1, w, Right), Backward, g, w, vcs)
			b.connect(bwd)
		}
	}

	return net, nil
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
