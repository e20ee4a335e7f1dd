package server

import (
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"minsim/internal/experiments"
	"minsim/internal/metrics"
	"minsim/internal/simrun"
)

// sameBits reports whether a and b agree on every field, floats
// compared bit for bit.
func sameBits(a, b metrics.Point) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if fa.Interface() != fb.Interface() {
			return false
		}
	}
	return true
}

// frontPoint is a distinct point per i, with every field set.
func frontPoint(i int) metrics.Point {
	x := float64(i) + 0.1
	return metrics.Point{
		Offered: x, OfferedMeasured: x / 3, Throughput: x / 7, LatencyCyc: x * 11,
		LatencyMs: x * 0.55, LatencyP0: x, LatencyP100: x * 40, StdDev: math.Sqrt(x),
		Messages: int64(i) + 5, Sustainable: i%2 == 0, Replicas: i % 4,
		LatencyCILo: x * 10, LatencyCIHi: x * 12, ThroughputCILo: x / 8, ThroughputCIHi: x / 6,
	}
}

func frontKey(i int) string { return fmt.Sprintf("%064x", i) }

func newDisk(t *testing.T) *simrun.DiskStore {
	t.Helper()
	disk, err := simrun.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return disk
}

// TestFrontMatchesDisk reads every point of a stored paper figure
// through the front, twice (from disk, then from memory), and holds
// each read to the disk store's bits.
func TestFrontMatchesDisk(t *testing.T) {
	disk := newDisk(t)
	plan := simrun.NewPlan()
	experiments.AddToPlan(plan, experiments.Figures()[0], experiments.Budget{WarmupCycles: 200, MeasureCycles: 800, Seed: 1995})
	if err := plan.Execute(context.Background(), simrun.Options{Workers: 2, Store: disk}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(disk.Dir())
	if err != nil {
		t.Fatal(err)
	}
	f := newFront(disk, frontCap)
	n := 0
	for _, e := range ents {
		key, ok := strings.CutSuffix(e.Name(), ".entry")
		if !ok {
			continue
		}
		want, ok := disk.Get(key)
		if !ok {
			t.Fatalf("%s: disk miss", key)
		}
		for _, read := range []string{"first", "repeat"} {
			if got, ok := f.Get(key); !ok || !sameBits(got, want) {
				t.Errorf("%s, %s read: got %+v (ok %v), disk has %+v", key, read, got, ok, want)
			}
		}
		n++
	}
	if n == 0 {
		t.Fatal("the figure stored no points")
	}
	if got := f.memHits.Load(); got != int64(n) {
		t.Errorf("memory hits = %d, want one per point (%d)", got, n)
	}
}

// TestFrontForgetsMisses: a point written straight into the inner
// store, as the fleet coordinator does, is found after a miss on it.
func TestFrontForgetsMisses(t *testing.T) {
	disk := newDisk(t)
	f := newFront(disk, frontCap)
	key, p := frontKey(1), frontPoint(1)
	if _, ok := f.Get(key); ok {
		t.Fatal("hit on an empty store")
	}
	disk.Put(key, "spec", p)
	if got, ok := f.Get(key); !ok || !sameBits(got, p) {
		t.Fatalf("after the inner Put: got %+v (ok %v), want %+v", got, ok, p)
	}
}

// TestFrontBound: with a test-sized cap, cap+1 distinct keys, through
// Get and through Put, never leave more than cap points in memory,
// and every Get still returns the inner store's point.
func TestFrontBound(t *testing.T) {
	const limit = 4
	disk := newDisk(t)
	f := newFront(disk, limit)
	check := func(when string) {
		t.Helper()
		if n := len(f.points); n > limit {
			t.Fatalf("%s: %d points remembered, cap %d", when, n, limit)
		}
	}
	for i := 0; i <= limit; i++ {
		disk.Put(frontKey(i), "spec", frontPoint(i))
		if got, ok := f.Get(frontKey(i)); !ok || !sameBits(got, frontPoint(i)) {
			t.Fatalf("get %d: got %+v (ok %v)", i, got, ok)
		}
		check(fmt.Sprintf("get %d", i))
	}
	for i := limit + 1; i <= 2*limit+1; i++ {
		f.Put(frontKey(i), "spec", frontPoint(i))
		check(fmt.Sprintf("put %d", i))
	}
	for i := 0; i <= 2*limit+1; i++ {
		if got, ok := f.Get(frontKey(i)); !ok || !sameBits(got, frontPoint(i)) {
			t.Errorf("reread %d: got %+v (ok %v)", i, got, ok)
		}
		check(fmt.Sprintf("reread %d", i))
	}
}

// TestFrontConcurrent runs eight goroutines of Gets and Puts over
// shared keys through a front small enough to clear repeatedly (run
// under -race in CI).
func TestFrontConcurrent(t *testing.T) {
	const keys, gets = 16, 8 * 66 // 66 of each goroutine's 100 calls are Gets
	f := newFront(newDisk(t), keys/4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 100; n++ {
				i := (g*7 + n) % keys
				if n%3 == 0 {
					f.Put(frontKey(i), "spec", frontPoint(i))
				} else if got, ok := f.Get(frontKey(i)); ok && !sameBits(got, frontPoint(i)) {
					t.Errorf("key %d: got %+v", i, got)
				}
			}
		}()
	}
	wg.Wait()
	if st := f.Stats(); st.Hits+st.Misses != gets {
		t.Errorf("stats %+v count %d lookups, want %d", st, st.Hits+st.Misses, gets)
	}
}

// TestFrontStats: hits are the inner store's hits plus memory hits,
// misses the inner store's misses.
func TestFrontStats(t *testing.T) {
	disk := newDisk(t)
	f := newFront(disk, frontCap)
	f.Put(frontKey(1), "spec", frontPoint(1))
	f.Get(frontKey(1)) // memory
	f.Get(frontKey(2)) // miss
	disk.Put(frontKey(2), "spec", frontPoint(2))
	f.Get(frontKey(2)) // disk
	f.Get(frontKey(2)) // memory
	f.Get(frontKey(3)) // miss

	inner, st := disk.Stats(), f.Stats()
	if inner.Hits != 1 || inner.Misses != 2 || f.memHits.Load() != 2 {
		t.Fatalf("inner %+v, memory hits %d; want 1 hit, 2 misses, 2 memory hits", inner, f.memHits.Load())
	}
	if st.Hits != inner.Hits+f.memHits.Load() || st.Misses != inner.Misses || st.WriteFails != inner.WriteFails {
		t.Errorf("front stats %+v, inner %+v, memory hits %d", st, inner, f.memHits.Load())
	}
}

// parkedStore is an inner store whose Get of one key announces itself
// on parked and then waits until release is closed.
type parkedStore struct {
	simrun.Store
	key     string
	parked  chan struct{}
	release chan struct{}
}

func (s *parkedStore) Get(key string) (metrics.Point, bool) {
	if key == s.key {
		close(s.parked)
		<-s.release
	}
	return s.Store.Get(key)
}

// returns runs call on a goroutine and waits for it to return. After
// 30 s it fails the test with every goroutine's stack, so a call stuck
// behind a lock names that lock instead of flaking on a short timer.
func returns(t *testing.T, call func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { call(); close(done) }()
	timer := time.NewTimer(30 * time.Second)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		buf := make([]byte, 1<<20)
		t.Fatalf("call did not return within 30s; goroutines:\n%s", buf[:runtime.Stack(buf, true)])
	}
}

// TestFrontNeverHoldsItsLockAcrossTheInnerStore: while a Get is parked
// inside the inner store, a Get of a remembered key and a Put of a
// third key still return. A front that held f.mu across the inner
// read would stall every job of the service behind one slow disk or
// HTTP read.
func TestFrontNeverHoldsItsLockAcrossTheInnerStore(t *testing.T) {
	inner := &parkedStore{Store: newDisk(t), key: frontKey(0), parked: make(chan struct{}), release: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(inner.release) }) }
	defer release()
	f := newFront(inner, frontCap)
	f.Put(frontKey(1), "spec", frontPoint(1))

	parkedGet := make(chan struct{})
	go func() { f.Get(frontKey(0)); close(parkedGet) }()
	returns(t, func() { <-inner.parked })
	returns(t, func() {
		if got, ok := f.Get(frontKey(1)); !ok || !sameBits(got, frontPoint(1)) {
			t.Errorf("remembered key: got %+v (ok %v)", got, ok)
		}
	})
	returns(t, func() { f.Put(frontKey(2), "spec", frontPoint(2)) })
	release()
	returns(t, func() { <-parkedGet })
	returns(t, func() {
		if _, ok := f.Get(frontKey(2)); !ok {
			t.Error("the Put made while a Get was parked is lost")
		}
	})
}
