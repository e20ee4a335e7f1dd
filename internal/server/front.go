package server

import (
	"sync"
	"sync/atomic"

	"minsim/internal/metrics"
	"minsim/internal/simrun"
)

// frontCap bounds the front: remembering a point when this many are
// remembered (about 16 MB) clears them all first. The paper's figures
// and the extensions are 848 points.
const frontCap = 1 << 16

// front is the service's in-memory front on its result store. simd
// keeps one store for its whole life, so after a point's first lookup
// it costs one map probe instead of the inner store's read. A key is a
// content address that includes the code fingerprint, so a remembered
// point has the bits a re-read or a recompute would give, and nothing
// needs invalidating. Misses are never remembered: a point another
// process writes into the inner store (a fleet worker, through the
// coordinator) is found on the next Get. The flip side is that an
// entry deleted on disk is still answered from memory until restart.
type front struct {
	inner simrun.Store
	limit int

	mu     sync.Mutex
	points map[string]metrics.Point

	memHits atomic.Int64 // Gets answered from points
}

func newFront(inner simrun.Store, limit int) *front {
	return &front{inner: inner, limit: limit, points: map[string]metrics.Point{}}
}

// Get answers from memory, else from the inner store, remembering a
// hit. The lock is not held across the inner store's read.
func (f *front) Get(key string) (metrics.Point, bool) {
	f.mu.Lock()
	p, ok := f.points[key]
	f.mu.Unlock()
	if ok {
		f.memHits.Add(1)
		return p, true
	}
	if p, ok = f.inner.Get(key); ok {
		f.remember(key, p)
	}
	return p, ok
}

// Put writes through to the inner store and remembers the point.
func (f *front) Put(key, spec string, p metrics.Point) {
	f.inner.Put(key, spec, p)
	f.remember(key, p)
}

func (f *front) remember(key string, p metrics.Point) {
	f.mu.Lock()
	if len(f.points) >= f.limit {
		clear(f.points)
	}
	f.points[key] = p
	f.mu.Unlock()
}

// Stats counts memory hits as hits: every Get is a hit from memory, a
// hit from the inner store or one of the inner store's misses.
func (f *front) Stats() simrun.StoreStats {
	st := f.inner.Stats()
	st.Hits += f.memHits.Load()
	return st
}
