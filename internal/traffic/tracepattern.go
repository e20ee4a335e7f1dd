package traffic

import (
	"fmt"

	"minsim/internal/xrand"
)

// Pair is one recorded source→destination pair of a captured trace —
// the timing-free skeleton a trace-replay pattern feeds back into the
// workload composition. Arrival times come from the workload's
// ArrivalProcess and lengths from its Lengths, so a captured
// communication structure can be re-driven at any offered load.
//
//simvet:wire — trace pairs ride inside simd workload options.
type Pair struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// TracePattern replays recorded destination sequences: each source
// cycles through the destinations it was recorded sending to, in
// order, wrapping around when the list is exhausted so a finite trace
// drives an arbitrarily long run. Sources absent from the trace
// generate no traffic. The cursor state makes a TracePattern
// single-stream: build a fresh one per Workload (WorkloadSpec.Factory
// does), never share one across engines.
type TracePattern struct {
	seq [][]int // per-src destination list, trace order
	pos []int   // per-src replay cursor
}

// NewTracePattern validates the pairs against the node count and
// builds the per-source replay lists.
func NewTracePattern(nodes int, pairs []Pair) (*TracePattern, error) {
	if len(pairs) == 0 {
		return nil, fmt.Errorf("traffic: empty trace")
	}
	t := &TracePattern{seq: make([][]int, nodes), pos: make([]int, nodes)}
	for i, p := range pairs {
		if p.Src < 0 || p.Src >= nodes || p.Dst < 0 || p.Dst >= nodes {
			return nil, fmt.Errorf("traffic: trace pair %d endpoints %d -> %d out of range [0, %d)", i, p.Src, p.Dst, nodes)
		}
		if p.Src == p.Dst {
			return nil, fmt.Errorf("traffic: trace pair %d sends %d to itself", i, p.Src)
		}
		t.seq[p.Src] = append(t.seq[p.Src], p.Dst)
	}
	return t, nil
}

// Dest implements Pattern; the rng is unused — replay is exact.
func (t *TracePattern) Dest(src int, rng *xrand.Source) (int, bool) {
	q := t.seq[src]
	if len(q) == 0 {
		return 0, false
	}
	d := q[t.pos[src]]
	t.pos[src]++
	if t.pos[src] == len(q) {
		t.pos[src] = 0
	}
	return d, true
}
