package topology

import (
	"fmt"

	"minsim/internal/kary"
)

// UniConfig describes a unidirectional MIN. Dilation and VCs are
// mutually exclusive refinements of the traditional MIN: a TMIN has
// Dilation = 1 and VCs = 1, a d-dilated DMIN has Dilation = d, and a
// VMIN has VCs = m.
type UniConfig struct {
	K        int     // switch arity (k x k switches), a power of two
	Stages   int     // n; the network has k^n nodes
	Pattern  Pattern // Cube or Butterfly interstage wiring
	Dilation int     // physical channels per internal port (>= 1)
	VCs      int     // virtual channels per internal link (>= 1)
	// Extra prepends distribution stages — the "extra-stage MIN" of
	// the paper's future-work list. A packet may leave an extra-stage
	// switch through any output port, so the network offers k^Extra
	// alternative routes per source/destination pair before the
	// self-routing stages take over (self-routing in a Delta network
	// delivers correctly from any entry port). 0 gives the paper's
	// standard single-path networks.
	Extra int
}

// kindOf classifies a UniConfig.
func (c UniConfig) kind() (Kind, error) {
	switch {
	case c.Dilation > 1 && c.VCs > 1:
		return 0, fmt.Errorf("topology: dilation and virtual channels cannot be combined (d=%d, vc=%d)", c.Dilation, c.VCs)
	case c.Dilation > 1:
		return DMIN, nil
	case c.VCs > 1:
		return VMIN, nil
	default:
		return TMIN, nil
	}
}

// Check reports the error NewUnidirectional would return for the
// configuration, or nil if it would build — without allocating. Every
// way NewUnidirectional can fail is a property of its arguments, so
// callers that only need to validate a description (request parsing, a
// command's pre-flight) need not pay for the network.
func (c UniConfig) Check() error {
	if _, err := c.kind(); err != nil {
		return err
	}
	if c.Dilation < 1 || c.VCs < 1 {
		return fmt.Errorf("topology: dilation (%d) and VCs (%d) must be >= 1", c.Dilation, c.VCs)
	}
	if c.Extra < 0 {
		return fmt.Errorf("topology: negative extra stages %d", c.Extra)
	}
	if c.K&(c.K-1) != 0 {
		return fmt.Errorf("topology: switch arity k = %d must be a power of two", c.K)
	}
	_, err := kary.New(c.K, c.Stages)
	return err
}

// ConnPerm returns the connection pattern C_layer of a unidirectional
// MIN as a permutation of the k^n wire addresses, for layer in
// [0, n]. Layer 0 connects nodes to stage 0, layer i (0 < i < n)
// connects stage i-1 to stage i, and layer n connects stage n-1 to
// the destination nodes.
//
// Cube MIN (Section 2): C_0 = σ (perfect k-shuffle), C_i = β_{n-i}
// for 1 <= i <= n; note C_n = β_0 = identity.
// Butterfly MIN: C_i = β_i for 0 <= i <= n-1 and C_n = β_0; note
// C_0 = C_n = identity.
// Omega: C_i = σ for 0 <= i <= n-1, C_n = identity.
// Baseline: C_0 = C_n = identity and C_i for 0 < i < n is the inverse
// shuffle of the low n-i+1 digits (the recursive halving pattern).
func ConnPerm(r kary.Radix, pat Pattern, layer int) kary.Perm {
	n := r.N()
	if layer < 0 || layer > n {
		panic(fmt.Sprintf("topology: connection layer %d out of range [0, %d]", layer, n))
	}
	switch pat {
	case Cube:
		if layer == 0 {
			return r.ShufflePerm()
		}
		return r.ButterflyPerm(n - layer)
	case Butterfly:
		if layer == n {
			return r.ButterflyPerm(0)
		}
		return r.ButterflyPerm(layer)
	case Omega:
		if layer == n {
			return r.IdentityPerm()
		}
		return r.ShufflePerm()
	case Baseline:
		if layer == 0 || layer == n {
			return r.IdentityPerm()
		}
		p := make(kary.Perm, r.Size())
		for x := range p {
			p[x] = r.RotateLowRight(x, n-layer+1)
		}
		return p
	}
	panic(fmt.Sprintf("topology: unknown pattern %d", int(pat)))
}

// RoutingTag returns the output-port tag used at stage `stage` by the
// destination-tag (self-routing) algorithm of the given pattern, for
// destination d. Cube, Omega and Baseline route most significant
// digit first (t_i = d_{n-i-1}); Butterfly routes t_i = d_{i+1} for
// i <= n-2 and t_{n-1} = d_0.
func RoutingTag(r kary.Radix, pat Pattern, stage, dst int) int {
	n := r.N()
	if stage < 0 || stage >= n {
		panic(fmt.Sprintf("topology: stage %d out of range [0, %d)", stage, n))
	}
	switch pat {
	case Cube, Omega, Baseline:
		return r.Digit(dst, n-stage-1)
	case Butterfly:
		if stage == n-1 {
			return r.Digit(dst, 0)
		}
		return r.Digit(dst, stage+1)
	}
	panic(fmt.Sprintf("topology: unknown pattern %d", int(pat)))
}

// NewUnidirectional builds a TMIN, DMIN or VMIN.
//
// Per the paper's fairness rules, node-to-network and network-to-node
// links always carry exactly one channel regardless of dilation or
// virtual channels (the one-port communication architecture; for
// DMINs "half of the input channels and half of the output channels
// to/from the network are not used").
func NewUnidirectional(cfg UniConfig) (*Network, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	kind, _ := cfg.kind() // Check passed
	r := kary.MustNew(cfg.K, cfg.Stages)
	n := cfg.Stages
	e := cfg.Extra
	total := n + e
	k := cfg.K
	N := r.Size()

	net := &Network{
		Kind:     kind,
		Pat:      cfg.Pattern,
		R:        r,
		Dilation: cfg.Dilation,
		VCs:      cfg.VCs,
		Extra:    e,
		Nodes:    N,
		Stages:   total,
		Inject:   make([]int, N),
		Eject:    make([]int, N),
		switchAt: make([][]int, total),
	}
	// Closed-form sizes: one single-channel link per node at each end,
	// and per interstage wire either Dilation one-channel links or one
	// link of VCs channels (the two never combine).
	net.Channels = make([]Channel, 0, 2*N+(total-1)*N*cfg.Dilation*cfg.VCs)
	net.Links = make([]Link, 0, 2*N+(total-1)*N*cfg.Dilation)
	net.Switches = make([]Switch, 0, total*(N/k))
	b := &builder{net: net}

	for s := 0; s < total; s++ {
		net.switchAt[s] = make([]int, N/k)
		for w := 0; w < N/k; w++ {
			b.addSwitch(s, w)
		}
	}

	// conn returns the wire permutation of a given layer 0..total.
	// With extra stages, layer 0 (nodes into the first extra stage) is
	// the identity and layers 1..e (between extra stages and into the
	// first routing stage) are perfect shuffles, spreading the
	// alternative routes; the remaining layers are the pattern's
	// C_1..C_n. Without extra stages it is exactly the pattern.
	conn := func(layer int) kary.Perm {
		if e == 0 {
			return ConnPerm(r, cfg.Pattern, layer)
		}
		switch {
		case layer == 0:
			return r.IdentityPerm()
		case layer <= e:
			return r.ShufflePerm()
		default:
			return ConnPerm(r, cfg.Pattern, layer-e)
		}
	}

	// Layer 0: node a -> stage-0 left port; one channel per node.
	c0 := conn(0)
	for a := 0; a < N; a++ {
		p := c0[a]
		to := swLoc(net.switchAt[0][p/k], Left, p%k)
		ids := b.addLink(nodeLoc(a), to, Forward, 0, p, 1)
		b.connect(ids)
		net.Inject[a] = ids[0]
	}

	// Interstage layers: right port p of stage i-1 -> left port
	// C_i(p) of stage i, with dilation/VC replication.
	for layer := 1; layer < total; layer++ {
		ci := conn(layer)
		for p := 0; p < N; p++ {
			q := ci[p]
			from := swLoc(net.switchAt[layer-1][p/k], Right, p%k)
			to := swLoc(net.switchAt[layer][q/k], Left, q%k)
			if cfg.Dilation > 1 {
				// d parallel physical links of one channel each.
				for d := 0; d < cfg.Dilation; d++ {
					b.connect(b.addLink(from, to, Forward, layer, q, 1))
				}
			} else {
				// one physical link carrying VCs channels.
				b.connect(b.addLink(from, to, Forward, layer, q, cfg.VCs))
			}
		}
	}

	// Last layer: right port p of stage total-1 -> node; one channel.
	cn := conn(total)
	for p := 0; p < N; p++ {
		d := cn[p]
		from := swLoc(net.switchAt[total-1][p/k], Right, p%k)
		ids := b.addLink(from, nodeLoc(d), Forward, total, p, 1)
		b.connect(ids)
		net.Eject[d] = ids[0]
	}

	return net, nil
}
