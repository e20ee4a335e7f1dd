package topology_test

import (
	"fmt"
	"slices"
	"testing"

	"minsim/internal/kary"
	"minsim/internal/topology"
	"minsim/internal/topology/graphtest"
)

// The incremental builder the package had before a Network became its
// description, frozen as the oracle for the closed-form accessors and
// the Graph view filled from them: it appends channels, links, switches
// and ports one at a time in construction order, reading the wiring
// from tabulated permutations (its own statement of them, below).
// Nothing here is derived from place, conn or the accessors.

type oracleBuilder struct {
	g        *graphtest.Graph
	switchAt [][]int // [stage][index] -> switch id
}

func (b *oracleBuilder) addSwitch(stage, index int) int {
	id := len(b.g.Switches)
	b.g.Switches = append(b.g.Switches, graphtest.Switch{ID: id, Stage: stage, Index: index})
	b.switchAt[stage][index] = id
	return id
}

// addLink creates a physical link carrying `chans` channels with the
// given endpoints and returns the channel ids.
func (b *oracleBuilder) addLink(from, to topology.Loc, dir topology.Dir, layer, wire, chans int) []int {
	linkID := len(b.g.Links)
	ids := make([]int, 0, chans)
	for c := 0; c < chans; c++ {
		chID := len(b.g.Channels)
		b.g.Channels = append(b.g.Channels, topology.Channel{
			ID: chID, Link: linkID, From: from, To: to, Dir: dir, Layer: layer, Wire: wire,
		})
		ids = append(ids, chID)
	}
	b.g.Links = append(b.g.Links, graphtest.Link{ID: linkID, Channels: ids})
	return ids
}

// connect registers channels on both endpoint switches: as inputs on
// the To switch and as an output port on the From switch.
func (b *oracleBuilder) connect(chans []int) {
	for _, id := range chans {
		ch := &b.g.Channels[id]
		if !ch.To.IsNode() {
			sw := &b.g.Switches[ch.To.Switch]
			sw.In = append(sw.In, id)
		}
	}
	first := &b.g.Channels[chans[0]]
	if first.From.IsNode() {
		return
	}
	sw := &b.g.Switches[first.From.Switch]
	if p := sw.PortAt(first.From.Side, first.From.Port); p != nil {
		p.Channels = append(p.Channels, chans...)
		return
	}
	sw.Ports = append(sw.Ports, graphtest.Port{Side: first.From.Side, Offset: first.From.Port, Channels: append([]int(nil), chans...)})
}

// oracleConnPerm is the tabulated statement of the connection patterns.
func oracleConnPerm(r kary.Radix, pat topology.Pattern, layer int) kary.Perm {
	n := r.N()
	switch pat {
	case topology.Cube:
		if layer == 0 {
			return r.ShufflePerm()
		}
		return r.ButterflyPerm(n - layer)
	case topology.Butterfly:
		if layer == n {
			return r.ButterflyPerm(0)
		}
		return r.ButterflyPerm(layer)
	case topology.Omega:
		if layer == n {
			return r.IdentityPerm()
		}
		return r.ShufflePerm()
	case topology.Baseline:
		if layer == 0 || layer == n {
			return r.IdentityPerm()
		}
		p := make(kary.Perm, r.Size())
		for x := range p {
			p[x] = r.RotateLowRight(x, n-layer+1)
		}
		return p
	}
	panic(fmt.Sprintf("unknown pattern %d", int(pat)))
}

// oracleConn returns the wire permutation of layer 0..total of a
// unidirectional network with e extra stages.
func oracleConn(r kary.Radix, pat topology.Pattern, e, layer int) kary.Perm {
	if e == 0 {
		return oracleConnPerm(r, pat, layer)
	}
	switch {
	case layer == 0:
		return r.IdentityPerm()
	case layer <= e:
		return r.ShufflePerm()
	default:
		return oracleConnPerm(r, pat, layer-e)
	}
}

func oracleUnidirectional(t testing.TB, cfg topology.UniConfig) *graphtest.Graph {
	desc, err := topology.NewUnidirectional(cfg)
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	r := kary.MustNew(cfg.K, cfg.Stages)
	e := cfg.Extra
	total := cfg.Stages + e
	k := cfg.K
	N := r.Size()

	// The description rides along for Validate, Dump and Name, which
	// read Kind, R and the multiplicities through it; nothing the
	// oracle appends below comes from it.
	b := &oracleBuilder{g: &graphtest.Graph{Network: desc, Inject: make([]int, N), Eject: make([]int, N)}, switchAt: make([][]int, total)}
	// Closed-form sizes: one single-channel link per node at each end,
	// and per interstage wire either Dilation one-channel links or one
	// link of VCs channels (the two never combine).
	b.g.Channels = make([]topology.Channel, 0, 2*N+(total-1)*N*cfg.Dilation*cfg.VCs)
	b.g.Links = make([]graphtest.Link, 0, 2*N+(total-1)*N*cfg.Dilation)
	b.g.Switches = make([]graphtest.Switch, 0, total*(N/k))
	for s := 0; s < total; s++ {
		b.switchAt[s] = make([]int, N/k)
		for w := 0; w < N/k; w++ {
			b.addSwitch(s, w)
		}
	}

	// Layer 0: node a -> stage-0 left port; one channel per node.
	c0 := oracleConn(r, cfg.Pattern, e, 0)
	for a := 0; a < N; a++ {
		p := c0[a]
		to := swLoc(b.switchAt[0][p/k], topology.Left, p%k)
		ids := b.addLink(nodeLoc(a), to, topology.Forward, 0, p, 1)
		b.connect(ids)
		b.g.Inject[a] = ids[0]
	}

	// Interstage layers: right port p of stage i-1 -> left port
	// C_i(p) of stage i, with dilation/VC replication.
	for layer := 1; layer < total; layer++ {
		ci := oracleConn(r, cfg.Pattern, e, layer)
		for p := 0; p < N; p++ {
			q := ci[p]
			from := swLoc(b.switchAt[layer-1][p/k], topology.Right, p%k)
			to := swLoc(b.switchAt[layer][q/k], topology.Left, q%k)
			if cfg.Dilation > 1 {
				// d parallel physical links of one channel each.
				for d := 0; d < cfg.Dilation; d++ {
					b.connect(b.addLink(from, to, topology.Forward, layer, q, 1))
				}
			} else {
				// one physical link carrying VCs channels.
				b.connect(b.addLink(from, to, topology.Forward, layer, q, cfg.VCs))
			}
		}
	}

	// Last layer: right port p of stage total-1 -> node; one channel.
	cn := oracleConn(r, cfg.Pattern, e, total)
	for p := 0; p < N; p++ {
		d := cn[p]
		from := swLoc(b.switchAt[total-1][p/k], topology.Right, p%k)
		ids := b.addLink(from, nodeLoc(d), topology.Forward, total, p, 1)
		b.connect(ids)
		b.g.Eject[d] = ids[0]
	}
	return b.g
}

func oracleBMINVC(t testing.TB, k, n, vcs int) *graphtest.Graph {
	desc, err := topology.NewBMINVC(k, n, vcs)
	if err != nil {
		t.Fatalf("BMIN k=%d n=%d vcs=%d: %v", k, n, vcs, err)
	}
	r := kary.MustNew(k, n)
	N := r.Size()
	b := &oracleBuilder{g: &graphtest.Graph{Network: desc, Inject: make([]int, N), Eject: make([]int, N)}, switchAt: make([][]int, n)}
	// Closed-form sizes: a full-duplex pair of single-channel links per
	// node, and per interstage wire a pair of links of vcs channels.
	b.g.Channels = make([]topology.Channel, 0, 2*N+(n-1)*N*2*vcs)
	b.g.Links = make([]graphtest.Link, 0, 2*N+(n-1)*N*2)
	b.g.Switches = make([]graphtest.Switch, 0, n*(N/k))

	perStage := N / k // k^{n-1}
	for s := 0; s < n; s++ {
		b.switchAt[s] = make([]int, perStage)
		for w := 0; w < perStage; w++ {
			b.addSwitch(s, w)
		}
	}

	// swOf returns the Loc of the stage-j port with wire address a.
	swOf := func(stage, a int, side topology.Side) topology.Loc {
		sw := b.switchAt[stage][r.DeleteDigit(a, stage)]
		return swLoc(sw, side, r.Digit(a, stage))
	}

	// Layer 0: node <-> stage-0 left port (same address).
	for a := 0; a < N; a++ {
		in := b.addLink(nodeLoc(a), swOf(0, a, topology.Left), topology.Forward, 0, a, 1)
		b.connect(in)
		b.g.Inject[a] = in[0]
		out := b.addLink(swOf(0, a, topology.Left), nodeLoc(a), topology.Backward, 0, a, 1)
		b.connect(out)
		b.g.Eject[a] = out[0]
	}

	// Layers 1..n-1: between stage g-1 (right side) and stage g (left
	// side), identity wiring on the n-digit wire address.
	for g := 1; g < n; g++ {
		for w := 0; w < N; w++ {
			fwd := b.addLink(swOf(g-1, w, topology.Right), swOf(g, w, topology.Left), topology.Forward, g, w, vcs)
			b.connect(fwd)
			bwd := b.addLink(swOf(g, w, topology.Left), swOf(g-1, w, topology.Right), topology.Backward, g, w, vcs)
			b.connect(bwd)
		}
	}
	return b.g
}

func nodeLoc(n int) topology.Loc { return topology.Loc{Node: n, Switch: -1} }

func swLoc(sw int, s topology.Side, p int) topology.Loc {
	return topology.Loc{Node: -1, Switch: sw, Side: s, Port: p}
}

// checkAgainstOracle compares the view and every accessor, called
// directly, with the oracle, field by field.
func checkAgainstOracle(t testing.TB, want *graphtest.Graph) {
	t.Helper()
	n := want.Network
	name := n.Name()
	got := graphtest.New(n)
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: view: %v", name, err)
	}
	if err := want.Validate(); err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}

	if n.ChannelCount() != len(want.Channels) || n.LinkCount() != len(want.Links) || n.SwitchCount() != len(want.Switches) {
		t.Fatalf("%s: counts %d/%d/%d, oracle has %d channels, %d links, %d switches", name,
			n.ChannelCount(), n.LinkCount(), n.SwitchCount(), len(want.Channels), len(want.Links), len(want.Switches))
	}
	for c, w := range want.Channels {
		if g := got.Channels[c]; g != w {
			t.Fatalf("%s: view channel %d = %+v, oracle %+v", name, c, g, w)
		}
		if g := n.ChannelAt(c); g != w {
			t.Fatalf("%s: ChannelAt(%d) = %+v, oracle %+v", name, c, g, w)
		}
		if l, wire, dir := n.Address(c); l != w.Layer || wire != w.Wire || dir != w.Dir {
			t.Fatalf("%s: Address(%d) = (%d, %d, %v), oracle channel %+v", name, c, l, wire, dir, w)
		}
		if g := n.LinkOf(c); g != w.Link {
			t.Fatalf("%s: LinkOf(%d) = %d, oracle %d", name, c, g, w.Link)
		}
		if g := n.EndsAtNode(c); g != w.To.IsNode() {
			t.Fatalf("%s: EndsAtNode(%d) = %v, oracle channel %+v", name, c, g, w)
		}
		if !w.To.IsNode() {
			if g := n.StageEntered(c); g != want.Switches[w.To.Switch].Stage {
				t.Fatalf("%s: StageEntered(%d) = %d, oracle switch %+v", name, c, g, want.Switches[w.To.Switch])
			}
		}
	}
	for l, w := range want.Links {
		if g := got.Links[l]; g.ID != w.ID || !slices.Equal(g.Channels, w.Channels) {
			t.Fatalf("%s: view link %d = %+v, oracle %+v", name, l, g, w)
		}
		if g := expand(n.LinkChannels(l)); !slices.Equal(g, w.Channels) {
			t.Fatalf("%s: LinkChannels(%d) = %v, oracle %v", name, l, g, w.Channels)
		}
	}
	for s, w := range want.Switches {
		g := got.Switches[s]
		if g.ID != w.ID || g.Stage != w.Stage || g.Index != w.Index {
			t.Fatalf("%s: view switch %d = %+v, oracle %+v", name, s, g, w)
		}
		if !slices.Equal(g.In, w.In) {
			t.Fatalf("%s: view switch %d In = %v, oracle %v", name, s, g.In, w.In)
		}
		if !slices.EqualFunc(g.Ports, w.Ports, func(a, b graphtest.Port) bool {
			return a.Side == b.Side && a.Offset == b.Offset && slices.Equal(a.Channels, b.Channels)
		}) {
			t.Fatalf("%s: view switch %d Ports = %+v, oracle %+v", name, s, g.Ports, w.Ports)
		}
		if got.SwitchAt(w.Stage, w.Index) != &got.Switches[s] || n.SwitchID(w.Stage, w.Index) != s {
			t.Fatalf("%s: SwitchAt(%d, %d) is not switch %d", name, w.Stage, w.Index, s)
		}
		if stage, index := n.StageOf(s); stage != w.Stage || index != w.Index {
			t.Fatalf("%s: StageOf(%d) = (%d, %d), oracle %+v", name, s, stage, index, w)
		}
		var in []int
		for _, side := range []topology.Side{topology.Left, topology.Right} {
			for offset := 0; offset < n.K(); offset++ {
				in = append(in, expand(n.PortInputs(s, side, offset))...)
			}
		}
		if !slices.Equal(in, w.In) {
			t.Fatalf("%s: PortInputs over switch %d = %v, oracle %v", name, s, in, w.In)
		}
		ports := 0
		for _, side := range []topology.Side{topology.Left, topology.Right} {
			for offset := 0; offset < n.K(); offset++ {
				chans := expand(n.PortChannels(s, side, offset))
				p := w.PortAt(side, offset)
				if p != nil {
					ports++
				}
				if (p == nil) != (chans == nil) || (p != nil && !slices.Equal(chans, p.Channels)) {
					t.Fatalf("%s: PortChannels(%d, %v, %d) = %v, oracle port %+v", name, s, side, offset, chans, p)
				}
			}
		}
		if ports != len(w.Ports) {
			t.Fatalf("%s: switch %d: oracle lists %d ports, %d distinct", name, s, len(w.Ports), ports)
		}
	}
	if !slices.Equal(got.Inject, want.Inject) || !slices.Equal(got.Eject, want.Eject) {
		t.Fatalf("%s: view Inject/Eject differ from the oracle's", name)
	}
	for node := 0; node < n.Nodes; node++ {
		if n.Inject(node) != want.Inject[node] || n.Eject(node) != want.Eject[node] {
			t.Fatalf("%s: node %d injects at %d and ejects at %d, oracle %d and %d", name, node,
				n.Inject(node), n.Eject(node), want.Inject[node], want.Eject[node])
		}
	}
	if n.Kind != topology.BMIN {
		for layer := 0; layer <= n.Stages; layer++ {
			table := oracleConn(n.R, n.Pat, n.Extra, layer)
			for p, q := range table {
				if g := n.Conn(layer, p); g != q {
					t.Fatalf("%s: conn(%d, %d) = %d, oracle %d", name, layer, p, g, q)
				}
				if g := n.ConnInv(layer, q); g != p {
					t.Fatalf("%s: connInv(%d, conn(%d)) = %d", name, layer, p, g)
				}
			}
		}
	}
}

// expand lists a run of consecutive ids; an empty run is nil.
func expand(base, count int) []int {
	var out []int
	for c := base; c < base+count; c++ {
		out = append(out, c)
	}
	return out
}

// oracleSpace calls f on the oracle of every configuration of the
// space the accessors claim: every unidirectional family, pattern,
// arity, depth, multiplicity and extra-stage count, and every BMIN.
// Short runs (and the race detector's) skip the few thousand-node
// corners, whose arithmetic the smaller ones already reach.
func oracleSpace(t *testing.T, f func(t *testing.T, want *graphtest.Graph)) {
	limit := 1 << 30
	if testing.Short() {
		limit = 1 << 13
	}
	for _, k := range []int{2, 4, 8} {
		for stages := 1; stages <= 4; stages++ {
			for _, pat := range []topology.Pattern{topology.Cube, topology.Butterfly, topology.Omega, topology.Baseline} {
				for extra := 0; extra <= 2; extra++ {
					// TMIN, then DMIN d = 2..4, then VMIN m = 2..4.
					for _, dv := range [][2]int{{1, 1}, {2, 1}, {3, 1}, {4, 1}, {1, 2}, {1, 3}, {1, 4}} {
						cfg := topology.UniConfig{K: k, Stages: stages, Pattern: pat, Dilation: dv[0], VCs: dv[1], Extra: extra}
						if net, _ := topology.NewUnidirectional(cfg); net.ChannelCount() <= limit {
							f(t, oracleUnidirectional(t, cfg))
						}
					}
				}
			}
			for vcs := 1; vcs <= 3; vcs++ {
				if net, _ := topology.NewBMINVC(k, stages, vcs); net.ChannelCount() <= limit {
					f(t, oracleBMINVC(t, k, stages, vcs))
				}
			}
		}
	}
}

// TestViewMatchesIncrementalBuilder is the proof that the closed form
// is the network the builder used to make.
func TestViewMatchesIncrementalBuilder(t *testing.T) {
	configs := 0
	oracleSpace(t, func(t *testing.T, want *graphtest.Graph) {
		configs++
		checkAgainstOracle(t, want)
	})
	t.Logf("%d configurations", configs)
}

// FuzzViewMatchesIncrementalBuilder draws configurations from the same
// space (and a little past its edges).
func FuzzViewMatchesIncrementalBuilder(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(0), uint8(0), uint8(1), uint8(0))
	f.Add(uint8(2), uint8(1), uint8(1), uint8(1), uint8(2), uint8(1))
	f.Add(uint8(0), uint8(3), uint8(3), uint8(2), uint8(3), uint8(2))
	f.Add(uint8(1), uint8(2), uint8(0), uint8(3), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, kRaw, stagesRaw, patRaw, famRaw, mRaw, extraRaw uint8) {
		k := 2 << (kRaw % 3)           // 2, 4, 8
		stages := int(stagesRaw)%4 + 1 // 1..4
		m := int(mRaw)%5 + 1           // 1..5
		if famRaw%4 == 3 {
			if net, _ := topology.NewBMINVC(k, stages, m); net.ChannelCount() <= 1<<14 {
				checkAgainstOracle(t, oracleBMINVC(t, k, stages, m))
			}
			return
		}
		cfg := topology.UniConfig{K: k, Stages: stages, Pattern: topology.Pattern(patRaw % 4), Dilation: 1, VCs: 1, Extra: int(extraRaw) % 4}
		switch famRaw % 4 {
		case 1:
			cfg.Dilation = m
		case 2:
			cfg.VCs = m
		}
		if net, _ := topology.NewUnidirectional(cfg); net.ChannelCount() <= 1<<14 {
			checkAgainstOracle(t, oracleUnidirectional(t, cfg))
		}
	})
}
