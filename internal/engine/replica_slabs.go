package engine

// Structure-of-arrays backing storage for a ReplicaSet. All R lanes'
// mutable per-channel, per-link and per-node state lives in contiguous
// slabs indexed [replica][...]: lane i's view of a per-channel array is
// the subslice [i*C, (i+1)*C) of one allocation, so stepping the lanes
// in lockstep walks dense memory instead of R scattered heaps. The
// worm pool is slab-backed the same way: each lane is primed with
// free-list worms whose path/cnt storage is carved from two shared
// slabs, sized so that in steady state no worm ever grows its path
// beyond its slab window.

import "minsim/internal/topology"

// wormsPerLane is the number of pool worms primed per lane. A worm in
// flight occupies at least its injection channel, and injection
// channels are per-node, so net.Nodes live worms is the common-case
// ceiling. The pool is capped so large-N networks don't pre-pay
// O(R·N·maxPath) slab memory for worms that are never simultaneously
// live at sweep loads: a lane that exceeds its primed pool falls back
// to ordinary heap allocation (newWorm), which is correct but
// abandons slab density for the extra worms.
func wormsPerLane(net *topology.Network) int {
	const cap = 1024
	if net.Nodes > cap {
		return cap
	}
	return net.Nodes
}

// maxWormPath bounds the path length a worm can acquire: one injection
// channel, at most one forward channel per stage (twice for the
// turnaround BMINs, which go up and then down), one ejection channel,
// and slack for the extra distribution stages of extra-stage MINs.
// Slab path windows use it as capacity; a path that outgrows it (never
// observed on the paper networks) falls back to the heap via append.
func maxWormPath(net *topology.Network) int { return 2*net.Stages + net.Extra + 4 }

// replicaSlabs owns the contiguous backing of all lanes of one
// ReplicaSet. lane(i) carves the per-lane windows; prime(e, i) fills
// lane i's worm pool from the path/cnt slabs.
type replicaSlabs struct {
	chans, links, nodes int // per-lane array lengths (links: 0 unless shared)
	perLane, maxPath    int // worm-pool geometry

	// [replica][channel|link|node] state, R windows per slab.
	chanOwner []*worm
	linkMark  []int64
	queues    [][]Message
	pending   []Message

	// Worm pool: R*perLane worm headers, each with a maxPath-capacity
	// window of the path/cnt slabs.
	worms []worm
	paths []int
	cnts  []uint8
}

// newReplicaSlabs allocates the slabs for r lanes over net. Like a
// scalar engine's, the lanes' link budgets exist only where links are
// shared.
func newReplicaSlabs(net *topology.Network, sharedLinks bool, r int) replicaSlabs {
	s := replicaSlabs{
		chans:   net.ChannelCount(),
		nodes:   net.Nodes,
		perLane: wormsPerLane(net),
		maxPath: maxWormPath(net),
	}
	if sharedLinks {
		s.links = net.LinkCount()
	}
	s.chanOwner = make([]*worm, r*s.chans)
	s.linkMark = make([]int64, r*s.links)
	s.queues = make([][]Message, r*s.nodes)
	s.pending = make([]Message, r*s.nodes)
	s.worms = make([]worm, r*s.perLane)
	s.paths = make([]int, r*s.perLane*s.maxPath)
	s.cnts = make([]uint8, r*s.perLane*s.maxPath)
	return s
}

// lane returns lane i's windows into the slabs. The three-index slices
// pin each window's capacity to its length, so an (impossible, but
// defensive) append through a window cannot bleed into lane i+1.
func (s *replicaSlabs) lane(i int) laneArrays {
	return laneArrays{
		chanOwner: s.chanOwner[i*s.chans : (i+1)*s.chans : (i+1)*s.chans],
		linkMark:  s.linkMark[i*s.links : (i+1)*s.links : (i+1)*s.links],
		queues:    s.queues[i*s.nodes : (i+1)*s.nodes : (i+1)*s.nodes],
		pending:   s.pending[i*s.nodes : (i+1)*s.nodes : (i+1)*s.nodes],
	}
}

// prime pushes lane i's share of the worm pool onto the lane's free
// list, with path/cnt storage carved from the slabs. newWorm recycles
// path/cnt backing across a worm's lifetimes (it pops from the free
// list and preserves both slices), so a primed lane keeps its worm
// state slab-resident for the whole run — the free list only grows
// past the pool if more than perLane worms are ever live at once.
func (s *replicaSlabs) prime(e *Engine, i int) {
	e.freeList = make([]*worm, 0, s.perLane)
	for j := 0; j < s.perLane; j++ {
		w := &s.worms[i*s.perLane+j]
		base := (i*s.perLane + j) * s.maxPath
		w.path = s.paths[base : base : base+s.maxPath]
		w.cnt = s.cnts[base : base : base+s.maxPath]
		e.freeList = append(e.freeList, w)
	}
}
