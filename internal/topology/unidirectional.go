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

// wiring is one interstage connection: a primitive permutation of the
// n-digit wire addresses. Every layer of every unidirectional pattern
// is either β_arg or a rotation of the low arg digits (over all n
// digits, the perfect shuffle σ and its inverse), so a connection and
// its inverse are evaluated per element, and tabulated (ConnPerm) only
// for code that wants a table. The zero value is β_0, the identity.
type wiring struct {
	op  wireOp
	arg int
}

type wireOp uint8

const (
	butterfly   wireOp = iota // β_arg: exchange digits 0 and arg
	rotateLeft                // digit arg-1 to position 0, the rest up one
	rotateRight               // its inverse
)

// apply returns the image of wire address x.
func (w wiring) apply(r kary.Radix, x int) int {
	switch w.op {
	case rotateLeft:
		return r.RotateLowLeft(x, w.arg)
	case rotateRight:
		return r.RotateLowRight(x, w.arg)
	}
	return r.Butterfly(w.arg, x)
}

// inverse returns the wiring that undoes w; β is an involution.
func (w wiring) inverse() wiring {
	switch w.op {
	case rotateLeft:
		w.op = rotateRight
	case rotateRight:
		w.op = rotateLeft
	}
	return w
}

// patternWiring returns the connection C_layer of an n-stage
// unidirectional MIN, for layer in [0, n]. Layer 0 connects nodes to
// stage 0, layer i (0 < i < n) connects stage i-1 to stage i, and
// layer n connects stage n-1 to the destination nodes.
//
// Cube MIN (Section 2): C_0 = σ (perfect k-shuffle), C_i = β_{n-i}
// for 1 <= i <= n; note C_n = β_0 = identity.
// Butterfly MIN: C_i = β_i for 0 <= i <= n-1 and C_n = β_0; note
// C_0 = C_n = identity.
// Omega: C_i = σ for 0 <= i <= n-1, C_n = identity.
// Baseline: C_0 = C_n = identity and C_i for 0 < i < n is the inverse
// shuffle of the low n-i+1 digits (the recursive halving pattern).
func patternWiring(n int, pat Pattern, layer int) wiring {
	if layer < 0 || layer > n {
		panic(fmt.Sprintf("topology: connection layer %d out of range [0, %d]", layer, n))
	}
	shuffle := wiring{rotateLeft, n}
	switch pat {
	case Cube:
		if layer == 0 {
			return shuffle
		}
		return wiring{butterfly, n - layer}
	case Butterfly:
		if layer == n {
			layer = 0
		}
		return wiring{butterfly, layer}
	case Omega:
		if layer == n {
			return wiring{}
		}
		return shuffle
	case Baseline:
		if layer == 0 || layer == n {
			return wiring{}
		}
		return wiring{rotateRight, n - layer + 1}
	}
	panic(fmt.Sprintf("topology: unknown pattern %d", int(pat)))
}

// ConnPerm tabulates the connection pattern C_layer of a
// unidirectional MIN as a permutation of the k^n wire addresses (see
// patternWiring).
func ConnPerm(r kary.Radix, pat Pattern, layer int) kary.Perm {
	w := patternWiring(r.N(), pat, layer)
	p := make(kary.Perm, r.Size())
	for x := range p {
		p[x] = w.apply(r, x)
	}
	return p
}

// wiring returns the connection of layer 0..Stages of a unidirectional
// network. With extra stages, layer 0 (nodes into the first extra
// stage) is the identity and layers 1..Extra (between extra stages and
// into the first routing stage) are perfect shuffles, spreading the
// alternative routes; the remaining layers are the pattern's C_1..C_n.
// Without extra stages it is exactly the pattern.
func (n *Network) wiring(layer int) wiring {
	switch {
	case n.Extra == 0 || layer > n.Extra:
		return patternWiring(n.R.N(), n.Pat, layer-n.Extra)
	case layer == 0:
		return wiring{}
	}
	return wiring{rotateLeft, n.R.N()}
}

// conn returns the left port of stage `layer` (or the node, for the
// last layer) that right port p of the stage before it (or node p, for
// layer 0) is wired to; connInv is its inverse.
func (n *Network) conn(layer, p int) int { return n.wiring(layer).apply(n.R, p) }

func (n *Network) connInv(layer, q int) int { return n.wiring(layer).inverse().apply(n.R, q) }

// RoutingTag returns the output-port tag used at stage `stage` by the
// destination-tag (self-routing) algorithm of the given pattern, for
// destination d: the digit of d at TagDigit's position.
func RoutingTag(r kary.Radix, pat Pattern, stage, dst int) int {
	return r.Digit(dst, TagDigit(r.N(), pat, stage))
}

// TagDigit returns which digit of the destination selects the output
// port at stage `stage` of an n-stage self-routing network. Cube, Omega
// and Baseline route most significant digit first (t_i = d_{n-i-1});
// Butterfly routes t_i = d_{i+1} for i <= n-2 and t_{n-1} = d_0.
func TagDigit(n int, pat Pattern, stage int) int {
	if stage < 0 || stage >= n {
		panic(fmt.Sprintf("topology: stage %d out of range [0, %d)", stage, n))
	}
	switch pat {
	case Cube, Omega, Baseline:
		return n - stage - 1
	case Butterfly:
		if stage == n-1 {
			return 0
		}
		return stage + 1
	}
	panic(fmt.Sprintf("topology: unknown pattern %d", int(pat)))
}

// NewUnidirectional describes a TMIN, DMIN or VMIN.
//
// Per the paper's fairness rules, node-to-network and network-to-node
// links always carry exactly one channel regardless of dilation or
// virtual channels (the one-port communication architecture; for
// DMINs "half of the input channels and half of the output channels
// to/from the network are not used").
func NewUnidirectional(cfg UniConfig) (*Network, error) {
	kind, err := cfg.kind()
	if err != nil {
		return nil, err
	}
	if cfg.Dilation < 1 || cfg.VCs < 1 {
		return nil, fmt.Errorf("topology: dilation (%d) and VCs (%d) must be >= 1", cfg.Dilation, cfg.VCs)
	}
	if cfg.Extra < 0 {
		return nil, fmt.Errorf("topology: negative extra stages %d", cfg.Extra)
	}
	if cfg.K&(cfg.K-1) != 0 {
		return nil, fmt.Errorf("topology: switch arity k = %d must be a power of two", cfg.K)
	}
	r, err := kary.New(cfg.K, cfg.Stages)
	if err != nil {
		return nil, err
	}
	return newNetwork(kind, cfg.Pattern, r, cfg.Dilation, cfg.VCs, cfg.Extra), nil
}
