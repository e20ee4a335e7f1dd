// Package sweep runs offered-load sweeps: one wormhole simulation per
// load point, executed in parallel across a worker pool (the network
// description is immutable and shared; every point gets its own
// engine, traffic source and PRNG streams so results are independent
// of scheduling).
//
// sweep is the ad-hoc entry point: callers hand it an already-built
// network and a source factory, so its points cannot be hashed, shared
// across figures or cached. Execution is delegated to the simrun plan
// layer (as opaque point functions), which is also what the
// spec-described, cacheable path in internal/experiments uses — the
// two paths run the exact same per-point code, simrun.PointConfig.
package sweep

import (
	"context"
	"fmt"

	"minsim/internal/engine"
	"minsim/internal/metrics"
	"minsim/internal/simrun"
	"minsim/internal/topology"
)

// SourceFactory builds a fresh traffic source for a given offered
// load (flits/node/cycle) and seed.
type SourceFactory = simrun.SourceFactory

// Config describes a sweep.
type Config struct {
	Net     *topology.Network
	Factory SourceFactory
	Loads   []float64 // offered loads, flits/node/cycle

	WarmupCycles  int64 // simulated but not measured
	MeasureCycles int64 // measurement window
	Seed          uint64
	QueueLimit    int                // sustainability watermark (0 = paper's 100)
	BufferDepth   int                // per-channel flit buffers (0 = paper's 1)
	Arbitration   engine.Arbitration // worm ordering policy
	Parallelism   int                // worker goroutines (0 = GOMAXPROCS)
}

func (c Config) validate() error {
	if c.Net == nil {
		return fmt.Errorf("sweep: nil network")
	}
	if c.Factory == nil {
		return fmt.Errorf("sweep: nil source factory")
	}
	if len(c.Loads) == 0 {
		return fmt.Errorf("sweep: no load points")
	}
	if c.WarmupCycles < 0 || c.MeasureCycles <= 0 {
		return fmt.Errorf("sweep: invalid cycle budget (warmup %d, measure %d)", c.WarmupCycles, c.MeasureCycles)
	}
	return nil
}

// Run executes the sweep and returns one Point per load, in load
// order. The first error encountered aborts the sweep.
func Run(cfg Config) ([]metrics.Point, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: on ctx cancellation the sweep
// stops scheduling new points and returns ctx's error.
func RunContext(ctx context.Context, cfg Config) ([]metrics.Point, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	plan := simrun.NewPlan()
	h := plan.AddFunc(len(cfg.Loads), func(i int) (metrics.Point, error) {
		return runPoint(cfg, i)
	})
	if err := plan.Execute(ctx, simrun.Options{Workers: cfg.Parallelism}); err != nil {
		return nil, err
	}
	return h.Points()
}

// runPoint simulates a single offered-load point on its own engine.
func runPoint(cfg Config, i int) (metrics.Point, error) {
	load := cfg.Loads[i]
	pt, err := simrun.PointConfig{
		Net:         cfg.Net,
		Factory:     cfg.Factory,
		Load:        load,
		Seed:        simrun.DeriveSeed(cfg.Seed, i),
		Warmup:      cfg.WarmupCycles,
		Measure:     cfg.MeasureCycles,
		QueueLimit:  cfg.QueueLimit,
		BufferDepth: cfg.BufferDepth,
		Arbitration: cfg.Arbitration,
	}.Simulate()
	if err != nil {
		return metrics.Point{}, fmt.Errorf("sweep: load %v: %w", load, err)
	}
	return pt, nil
}

// LoadRange returns count loads evenly spaced over [lo, hi],
// inclusive of both endpoints.
func LoadRange(lo, hi float64, count int) []float64 {
	if count < 2 || hi < lo {
		panic(fmt.Sprintf("sweep: bad load range [%v, %v] x%d", lo, hi, count))
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(count-1)
	}
	return out
}
