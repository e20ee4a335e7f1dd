package simrun

import (
	"context"

	"minsim/internal/engine"
	"minsim/internal/metrics"
	"minsim/internal/topology"
	"minsim/internal/traffic"
)

// DeriveSeed maps a sweep-level base seed and a point index to the
// point's own seed, so adding points to a sweep does not reshuffle
// existing ones. Every execution path (Plan.AddSweep, FindSaturation's
// probes as index 0, the cache key) must use this one derivation —
// cached results are only valid if a point's seed is a pure function
// of (base seed, index).
func DeriveSeed(base uint64, i int) uint64 {
	return base*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
}

// DeriveReplicaSeed extends DeriveSeed to replicated points: replica r
// of point i gets its own seed stream. Replica 0 is DeriveSeed(base, i)
// exactly, so single-run sweeps and their cache entries are the r = 0
// slice of replicated ones — turning replication on does not
// invalidate (or even re-run) the points a previous single-run sweep
// already computed.
func DeriveReplicaSeed(base uint64, i, r int) uint64 {
	return DeriveSeed(base, i) + uint64(r)*0x94d049bb133111eb
}

// PointConfig fully determines one simulation point over an
// already-built network. Seed is the point's final derived seed (see
// DeriveSeed), not a sweep base seed.
type PointConfig struct {
	Net         *topology.Network
	Factory     SourceFactory
	Load        float64
	Seed        uint64
	Warmup      int64
	Measure     int64
	BufferDepth int
	Arbitration engine.Arbitration
}

// Simulate runs the point and reduces the engine statistics to a
// curve point: the one implementation behind every RunSpec; results
// are bit-exact functions of the config.
func (c PointConfig) Simulate() (metrics.Point, error) {
	return c.simulate(context.Background())
}

// cancelQuantum bounds how many cycles a point simulates between
// context checks, so a point does not make the plan executor
// non-preemptible for a whole warmup+measure run. At ≤ 2 µs per cycle
// on the paper networks, a leg is ≤ 16 ms.
const cancelQuantum = 8192

// NewEngine builds the point's traffic source and engine: the one
// place a point's seeds come from (the source draws from Seed, the
// engine from Seed^0xd1b54a32d192ed03), so every caller that builds a
// point from a spec simulates the point a plan caches for it. tune,
// when non-nil, adjusts the configuration before the engine is built;
// `minsim run -trace` attaches its delivery hook there.
func (c PointConfig) NewEngine(tune func(*engine.Config)) (*engine.Engine, error) {
	e, _, err := c.newEngine(tune)
	return e, err
}

// newEngine is NewEngine returning the source too, for simulate to
// give back.
func (c PointConfig) newEngine(tune func(*engine.Config)) (*engine.Engine, engine.Source, error) {
	src, err := c.Factory(c.Load, c.Seed)
	if err != nil {
		return nil, nil, err
	}
	cfg := engine.Config{
		Net:         c.Net,
		Source:      src,
		Seed:        c.Seed ^ 0xd1b54a32d192ed03,
		BufferDepth: c.BufferDepth,
		Arbitration: c.Arbitration,
	}
	if tune != nil {
		tune(&cfg)
	}
	e, err := engine.New(cfg)
	return e, src, err
}

// simulate runs the point in cancelQuantum legs, observing ctx between
// legs. Chunked Run legs are bit-exact with one full Run (idle-skip
// credits are additive; idle cycles draw no randomness), so cached
// results are unaffected. Once it has read the statistics it recycles
// the engine and the workload it built, so the next point reuses their
// memory; a point cancelled mid-run drops them.
func (c PointConfig) simulate(ctx context.Context) (metrics.Point, error) {
	e, src, err := c.newEngine(nil)
	if err != nil {
		return metrics.Point{}, err
	}
	e.SetMeasureFrom(c.Warmup)
	for left := c.Warmup + c.Measure; left > 0; {
		if err := ctx.Err(); err != nil {
			return metrics.Point{}, err
		}
		leg := int64(cancelQuantum)
		if left < leg {
			leg = left
		}
		e.Run(leg)
		left -= leg
	}
	p := metrics.FromStats(c.Load, c.Net.Nodes, e.Stats())
	e.Recycle()
	if w, ok := src.(*traffic.Workload); ok {
		w.Recycle()
	}
	return p, nil
}
