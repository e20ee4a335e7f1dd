// Package traffic generates network workloads as the composition of
// three orthogonal axes: an ArrivalProcess drawing per-node
// interarrival gaps (the paper's Poisson stream by default, plus
// bursty MMPP and on-off processes), a Pattern drawing destinations
// (Section 5's uniform, x% nonuniform hot spot, perfect k-shuffle and
// i-th butterfly permutations, plus trace replay), and Lengths
// drawing message lengths (uniform over {8, ..., 1024} flits in the
// paper). Patterns are optionally scoped to processor clusters
// (global, cluster-16, cluster-32) with per-cluster relative load
// ratios (e.g. 4:1:1:1).
package traffic

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"minsim/internal/engine"
	"minsim/internal/kary"
	"minsim/internal/xrand"
)

// Pattern draws destinations for messages originating at a node.
type Pattern interface {
	// Dest returns a destination for a message from src, never src
	// itself. ok = false means src generates no traffic under this
	// pattern (e.g. a fixed point of a permutation pattern).
	Dest(src int, rng *xrand.Source) (dst int, ok bool)
}

// Uniform sends to every other node of the source's cluster with
// equal probability (the paper's uniform pattern).
type Uniform struct {
	C Clustering
}

// Dest implements Pattern.
func (u Uniform) Dest(src int, rng *xrand.Source) (int, bool) {
	members := u.C.Members[u.C.Of[src]]
	if len(members) < 2 {
		return 0, false
	}
	for {
		d := members[rng.Intn(len(members))]
		if d != src {
			return d, true
		}
	}
}

// HotSpot implements the paper's x% nonuniform pattern: within each
// cluster the first node is hot and receives x% more packets. With
// y = N·x (N the cluster size), the hot node is chosen with
// probability (1+y)/(N+y) and each other node with 1/(N+y).
// Draws that select the source itself are rejected and retried.
type HotSpot struct {
	C Clustering
	X float64 // extra traffic fraction, e.g. 0.05 for "5% more"
}

// Dest implements Pattern.
func (h HotSpot) Dest(src int, rng *xrand.Source) (int, bool) {
	members := h.C.Members[h.C.Of[src]]
	if len(members) < 2 {
		return 0, false
	}
	n := float64(len(members))
	y := n * h.X
	pHot := (1 + y) / (n + y)
	for {
		var d int
		if rng.Float64() < pHot {
			d = members[0]
		} else {
			d = members[1+rng.Intn(len(members)-1)]
		}
		if d != src {
			return d, true
		}
	}
}

// Permutation sends every message from s to P[s]. Fixed points
// generate no traffic. The paper's two permutation workloads are the
// perfect k-shuffle and the i-th butterfly (i = 2 in Fig. 20b).
type Permutation struct {
	P kary.Perm
}

// Dest implements Pattern.
func (p Permutation) Dest(src int, rng *xrand.Source) (int, bool) {
	d := p.P[src]
	return d, d != src
}

// ShufflePattern returns the perfect k-shuffle permutation pattern.
func ShufflePattern(r kary.Radix) Permutation {
	return Permutation{P: r.ShufflePerm()}
}

// ButterflyPattern returns the i-th butterfly permutation pattern.
func ButterflyPattern(r kary.Radix, i int) Permutation {
	return Permutation{P: r.ButterflyPerm(i)}
}

// Lengths is a message-length distribution in flits: "uniform" over
// [Min, Max] (PaperLengths is Section 5's), "fixed" at L, or "bimodal"
// drawing Short with probability PShort, else Long (the paper's future
// short/long/bimodal study). Fields the kind does not use are ignored;
// the JSON tags are the fleet's wire encoding (docs/wire.lock).
//
//simvet:wire
type Lengths struct {
	Kind   string  `json:"kind"` // "uniform" | "fixed" | "bimodal"
	Min    int     `json:"min,omitempty"`
	Max    int     `json:"max,omitempty"`
	L      int     `json:"l,omitempty"`
	Short  int     `json:"short,omitempty"`
	Long   int     `json:"long,omitempty"`
	PShort float64 `json:"p_short,omitempty"`
}

// PaperLengths is the message-length distribution of Section 5.
var PaperLengths = Lengths{Kind: "uniform", Min: 8, Max: 1024}

// Draw draws one length: a uniform draw is one IntRange call, a
// bimodal one a Float64 call, a fixed one no call at all.
func (l Lengths) Draw(rng *xrand.Source) int {
	switch l.Kind {
	case "uniform":
		return rng.IntRange(l.Min, l.Max)
	case "bimodal":
		if rng.Float64() < l.PShort {
			return l.Short
		}
		return l.Long
	}
	return l.L
}

// Mean returns the distribution's mean length.
func (l Lengths) Mean() float64 {
	switch l.Kind {
	case "uniform":
		return float64(l.Min+l.Max) / 2
	case "bimodal":
		return l.PShort*float64(l.Short) + (1-l.PShort)*float64(l.Long)
	}
	return float64(l.L)
}

// Validate reports whether l names a known kind whose parameters draw
// only positive lengths.
func (l Lengths) Validate() error {
	var ok bool
	switch l.Kind {
	case "uniform":
		ok = l.Min >= 1 && l.Max >= l.Min
	case "fixed":
		ok = l.L >= 1
	case "bimodal":
		ok = l.Short >= 1 && l.Long >= 1 && l.PShort >= 0 && l.PShort <= 1
	default:
		return fmt.Errorf("traffic: unknown length kind %q", l.Kind)
	}
	if !ok {
		return fmt.Errorf("traffic: bad %s lengths %+v", l.Kind, l)
	}
	return nil
}

// Workload is an engine.Source generating independent per-node
// message streams: one arrival process (Poisson by default), one
// destination pattern, one length distribution. The three axes are
// orthogonal — any ArrivalProcess composes with any Pattern and any
// Lengths.
type Workload struct {
	pattern Pattern
	lengths Lengths
	arrival ArrivalProcess
	state   []nodeState
}

// nodeState is one node's stream, 64 bytes: Next reads the rate from
// the cache line it advances.
type nodeState struct {
	rng  xrand.Source
	next float64
	rate float64 // msgs per cycle
	arr  ArrivalState
}

// Config assembles a Workload.
type Config struct {
	// Clusters partitions the nodes: the workload has one stream per
	// entry of Clusters.Of and spreads Load over Clusters.Members. The
	// workload keeps neither.
	Clusters Clustering
	Pattern  Pattern
	Lengths  Lengths
	// Arrival selects the interarrival process; nil means the paper's
	// Poisson stream (Exponential), with streams byte-identical to the
	// pre-abstraction workload.
	Arrival ArrivalProcess
	// Load is the normalized offered load: mean flits per node per
	// cycle, averaged over all nodes.
	Load float64
	// Ratios are the paper's a:b:c:d cluster load ratios, one per
	// cluster; nil means equal. Within a cluster every node gets the
	// same message rate; across clusters the aggregate rates follow the
	// ratios while the all-node average stays Load.
	Ratios []float64
	Seed   uint64
}

// NewWorkload builds the workload. It validates that there are nodes,
// that the length distribution and arrival process parameters are
// usable, that Load is finite and non-negative, that Ratios has one
// non-negative entry per cluster, not all zero, and that no per-node
// rate overflows. Each node's rate lives in its stream state, an array
// reused from a workload given back with Recycle when one is at hand;
// the streams are the same either way.
func NewWorkload(cfg Config) (*Workload, error) {
	nodes := len(cfg.Clusters.Of)
	if nodes == 0 {
		return nil, fmt.Errorf("traffic: %d nodes", nodes)
	}
	if cfg.Pattern == nil {
		return nil, fmt.Errorf("traffic: nil pattern")
	}
	if err := cfg.Lengths.Validate(); err != nil {
		return nil, err
	}
	arrival := cfg.Arrival
	if arrival == nil {
		arrival = Exponential{}
	}
	if err := arrival.Validate(); err != nil {
		return nil, err
	}
	load, meanLen := cfg.Load, cfg.Lengths.Mean()
	if !(load >= 0) || math.IsInf(load, 1) || !(meanLen > 0) { // negated so NaN fails too
		return nil, fmt.Errorf("traffic: invalid load %v or mean length %v", load, meanLen)
	}
	clusters := cfg.Clusters.Members
	total := float64(len(clusters))
	if cfg.Ratios != nil {
		if len(cfg.Ratios) != len(clusters) {
			return nil, fmt.Errorf("traffic: %d ratios for %d clusters", len(cfg.Ratios), len(clusters))
		}
		total = 0
		for _, r := range cfg.Ratios {
			if !(r >= 0) { // negated so NaN fails too
				return nil, fmt.Errorf("traffic: invalid ratio %v", r)
			}
			total += r
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("traffic: all-zero ratios")
	}
	// rate is the message rate of each node of cluster ci: the load's
	// messages per cycle over all nodes, the cluster's share of them by
	// its ratio, split evenly among its members.
	msgs := load * float64(nodes) / meanLen
	rate := func(ci int) float64 {
		ratio := 1.0
		if cfg.Ratios != nil {
			ratio = cfg.Ratios[ci]
		}
		return msgs * ratio / total / float64(len(clusters[ci]))
	}
	for ci, members := range clusters {
		if r := rate(ci); len(members) > 0 && !(r <= math.MaxFloat64) { // negated so NaN fails too
			return nil, fmt.Errorf("traffic: load %v gives cluster %d a per-node rate of %v", load, ci, r)
		}
	}
	spares.Lock()
	var w *Workload
	if n := len(spares.list); n > 0 {
		w, spares.list[n-1] = spares.list[n-1], nil
		spares.list = spares.list[:n-1]
	}
	spares.Unlock()
	if w == nil {
		w = new(Workload)
	}
	state := w.state
	if cap(state) < nodes {
		state = make([]nodeState, nodes)
	}
	// One assignment resets everything; only the per-node state's
	// backing array carries over, and every element is rewritten below.
	*w = Workload{
		pattern: cfg.Pattern,
		lengths: cfg.Lengths,
		arrival: arrival,
		state:   state[:nodes],
	}
	base := xrand.New(cfg.Seed ^ 0xa5a5a5a55a5a5a5a)
	for i := range w.state {
		st := &w.state[i]
		*st = nodeState{rng: base.Split()}
		st.arr = arrival.Start(&st.rng)
	}
	for ci, members := range clusters {
		r := rate(ci)
		for _, n := range members {
			w.state[n].rate = r
		}
	}
	return w, nil
}

// spares is a stack of the workloads finished points gave back
// (Recycle), at most one per P; a GC does not empty it.
var spares struct {
	sync.Mutex
	list []*Workload
}

// Recycle gives the workload's per-node state to the next NewWorkload,
// dropping the pattern and the arrival process, which the caller
// built. When GOMAXPROCS workloads are already parked the
// workload is dropped instead. The workload must not be used after
// Recycle.
func (w *Workload) Recycle() {
	w.pattern, w.arrival = nil, nil
	spares.Lock()
	if len(spares.list) < runtime.GOMAXPROCS(0) {
		spares.list = append(spares.list, w)
	}
	spares.Unlock()
}

// Next implements engine.Source: the interarrival gap comes from the
// arrival process, the destination from the pattern, the length from
// the length distribution. The draw order (destination, gap, length)
// is fixed; it is part of the determinism contract the replica
// bit-exactness suite pins. A node's stream ends once its next arrival
// lies beyond the last cycle an int64 can count.
func (w *Workload) Next(node int) (engine.Message, bool) {
	st := &w.state[node]
	rate := st.rate
	if rate <= 0 {
		return engine.Message{}, false
	}
	dst, ok := w.pattern.Dest(node, &st.rng)
	if !ok {
		return engine.Message{}, false
	}
	st.next += w.arrival.NextGap(&st.arr, rate, &st.rng)
	if !(st.next < 1<<63) {
		return engine.Message{}, false
	}
	return engine.Message{
		Src:     node,
		Dst:     dst,
		Len:     w.lengths.Draw(&st.rng),
		Created: int64(math.Ceil(st.next)),
	}, true
}
