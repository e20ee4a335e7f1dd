package simrun

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"minsim/internal/engine"
	"minsim/internal/metrics"
	"minsim/internal/topology"
	"minsim/internal/traffic"
)

// tinySpec is a 16-node point that simulates in well under a
// millisecond, for exercising the plan machinery.
func tinySpec(load float64, seed uint64) RunSpec {
	return RunSpec{
		Net:     NetworkSpec{Kind: topology.TMIN, K: 4, Stages: 2},
		Work:    WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: Uniform}, Lengths: &traffic.Lengths{Kind: "fixed", L: 8}},
		Load:    load,
		Warmup:  100,
		Measure: 500,
		Seed:    seed,
	}
}

// TestTinyLoadRunsEmpty: at load 1e-300 every node's first arrival lies
// past the last cycle an int64 counts, so the point runs its budget with
// no message at all. Its creation cycle used to wrap negative, and the
// engine then admitted messages without end inside a single cycle.
func TestTinyLoadRunsEmpty(t *testing.T) {
	spec := tinySpec(1e-300, 1)
	spec.Measure = 1000
	type outcome struct {
		p   metrics.Point
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		p, err := spec.run(context.Background())
		done <- outcome{p, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.p.Messages != 0 || o.p.Throughput != 0 || !o.p.Sustainable {
			t.Errorf("point %+v; want an empty, sustainable run", o.p)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the point did not finish its 1,100 cycles in 20 s")
	}
}

func tinySweep(loads []float64) SweepSpec {
	return SweepSpec{
		Net:    NetworkSpec{Kind: topology.TMIN, K: 4, Stages: 2},
		Work:   WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: Uniform}, Lengths: &traffic.Lengths{Kind: "fixed", L: 8}},
		Loads:  loads,
		Budget: Budget{WarmupCycles: 100, MeasureCycles: 500, Seed: 7},
	}
}

func TestKeyStableAndCanonical(t *testing.T) {
	base := tinySpec(0.3, 42)
	k1, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("same spec hashed differently: %s vs %s", k1, k2)
	}

	// Build-equivalent spellings must share the key: TMIN ignores
	// Dilation/VCs, and nil Lengths means the paper's U{8..1024}.
	alt := base
	alt.Net.Dilation, alt.Net.VCs = 1, 1
	if k, _ := alt.Key(); k != k1 {
		t.Errorf("canonically equal spec hashed differently")
	}
	nilLen := base
	nilLen.Work.Lengths = nil
	explicit := base
	explicit.Work.Lengths = &traffic.PaperLengths
	kn, _ := nilLen.Key()
	ke, _ := explicit.Key()
	if kn != ke {
		t.Errorf("nil vs explicit paper lengths hashed differently")
	}

	// Every semantically meaningful field must shift the key.
	variants := map[string]RunSpec{
		"load":    tinySpec(0.31, 42),
		"seed":    tinySpec(0.3, 43),
		"net":     {Net: NetworkSpec{Kind: topology.BMIN, K: 4, Stages: 2}, Work: base.Work, Load: 0.3, Warmup: 100, Measure: 500, Seed: 42},
		"warmup":  {Net: base.Net, Work: base.Work, Load: 0.3, Warmup: 101, Measure: 500, Seed: 42},
		"measure": {Net: base.Net, Work: base.Work, Load: 0.3, Warmup: 100, Measure: 501, Seed: 42},
		"depth":   {Net: base.Net, Work: base.Work, Load: 0.3, Warmup: 100, Measure: 500, Seed: 42, BufferDepth: 2},
		"arb":     {Net: base.Net, Work: base.Work, Load: 0.3, Warmup: 100, Measure: 500, Seed: 42, Arbitration: engine.ArbitrateOldestFirst},
		"lengths": {Net: base.Net, Work: WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: Uniform}, Lengths: &traffic.Lengths{Kind: "fixed", L: 16}}, Load: 0.3, Warmup: 100, Measure: 500, Seed: 42},
		"pattern": {Net: base.Net, Work: WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: HotSpot, HotX: 0.05}, Lengths: &traffic.Lengths{Kind: "fixed", L: 8}}, Load: 0.3, Warmup: 100, Measure: 500, Seed: 42},
	}
	for name, v := range variants {
		k, err := v.Key()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == k1 {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

// TestKeylessSweepFailsEveryPoint: a spec naming an unknown pattern
// or length kind has no key, so it could not run. Every point of its
// sweep (replicas included) and an AddSpec of it fail with the key's
// error on every Execute, and none reaches the pool, the store or a
// dispatcher.
func TestKeylessSweepFailsEveryPoint(t *testing.T) {
	for name, work := range map[string]WorkloadSpec{
		"pattern": {Pattern: PatternSpec{Kind: PatternKind(99)}},
		"lengths": {Pattern: PatternSpec{Kind: Uniform}, Lengths: &traffic.Lengths{Kind: "zipf", L: 8}},
	} {
		s := tinySweep([]float64{0.1, 0.2, 0.3})
		s.Work, s.Budget.Replicas = work, 2
		_, want := keyPrefix(s.Net, s.Work)
		if want == nil {
			t.Fatalf("%s: the spec has a key", name)
		}
		p := NewPlan()
		handles := []*Handle{p.AddSweep(s), p.AddSpec(RunSpec{Net: s.Net, Work: work, Load: 0.4})}
		for round := 0; round < 2; round++ {
			store := &countingStore{}
			if err := p.Execute(context.Background(), Options{Workers: 1, Store: store, Dispatcher: noDispatch{t}}); err != nil {
				t.Fatal(err)
			}
			if c := p.Counters(); c.Unique != 7 || c.Executed != 0 || c.Failed != c.Unique || c.Done != c.Unique {
				t.Errorf("%s round %d: counters %+v, want all 7 unique points failed and none executed", name, round, c)
			}
			if store.gets != 0 {
				t.Errorf("%s round %d: %d store lookups, want none", name, round, store.gets)
			}
			for i, h := range handles {
				if _, err := h.Points(); err == nil || err.Error() != want.Error() {
					t.Errorf("%s handle %d: Points error %v, want %v", name, i, err, want)
				}
			}
		}
	}
}

// countingStore misses every key and counts lookups.
type countingStore struct{ gets int }

func (s *countingStore) Get(string) (metrics.Point, bool)  { s.gets++; return metrics.Point{}, false }
func (s *countingStore) Put(string, string, metrics.Point) {}
func (s *countingStore) Stats() StoreStats                 { return StoreStats{} }

// noDispatch fails the test if anything is dispatched.
type noDispatch struct{ t *testing.T }

func (d noDispatch) Dispatch(_ context.Context, units []DispatchUnit, _ func(int, metrics.Point, bool, error)) error {
	d.t.Errorf("dispatched %d units", len(units))
	return nil
}

func TestStoreCorruptEntriesAreMisses(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	pt := metrics.Point{Offered: 0.3, Throughput: 0.29, LatencyCyc: 55, Messages: 123, Sustainable: true}
	store.Put("abc", "spec", pt)
	got, ok := store.Get("abc")
	if !ok || !reflect.DeepEqual(got, pt) {
		t.Fatalf("round trip failed: %+v ok=%t", got, ok)
	}

	// Truncated mid-field.
	whole := appendEntry(nil, "abc", "spec", pt)
	if err := os.WriteFile(filepath.Join(dir, "abc"+entryExt), whole[:len(whole)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get("abc"); ok {
		t.Error("truncated entry was trusted")
	}
	// A valid entry under the wrong key (renamed/copied file).
	if err := os.WriteFile(filepath.Join(dir, "abc"+entryExt), appendEntry(nil, "zzz", "spec", pt), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get("abc"); ok {
		t.Error("key-mismatched entry was trusted")
	}
	// Missing entirely.
	if _, ok := store.Get("nope"); ok {
		t.Error("missing entry reported as hit")
	}
}

func TestCachedRerunIsByteIdenticalAndFree(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	loads := []float64{0.1, 0.2, 0.3, 0.4}

	run := func() ([]metrics.Point, Counters) {
		p := NewPlan()
		h := p.AddSweep(tinySweep(loads))
		if err := p.Execute(context.Background(), Options{Store: store}); err != nil {
			t.Fatal(err)
		}
		pts, err := h.Points()
		if err != nil {
			t.Fatal(err)
		}
		return pts, p.Counters()
	}

	fresh, c1 := run()
	if c1.Executed != len(loads) || c1.Cached != 0 {
		t.Fatalf("cold run: executed %d cached %d, want %d/0", c1.Executed, c1.Cached, len(loads))
	}
	cached, c2 := run()
	if c2.Executed != 0 || c2.Cached != len(loads) {
		t.Fatalf("warm run: executed %d cached %d, want 0/%d", c2.Executed, c2.Cached, len(loads))
	}
	fb, _ := json.Marshal(fresh)
	cb, _ := json.Marshal(cached)
	if string(fb) != string(cb) {
		t.Errorf("cached results differ from fresh:\nfresh:  %s\ncached: %s", fb, cb)
	}

	// Corrupt one entry: exactly that point recomputes, to the same value.
	key, err := RunSpec{
		Net: tinySweep(loads).Net, Work: tinySweep(loads).Work,
		Load: loads[2], Warmup: 100, Measure: 500, Seed: DeriveSeed(7, 2),
	}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(store.Dir(), key+entryExt), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	healed, c3 := run()
	if c3.Executed != 1 || c3.Cached != len(loads)-1 {
		t.Fatalf("after corruption: executed %d cached %d, want 1/%d", c3.Executed, c3.Cached, len(loads)-1)
	}
	hb, _ := json.Marshal(healed)
	if string(hb) != string(fb) {
		t.Errorf("recomputed results differ from fresh")
	}
}

func TestCrossSweepDedup(t *testing.T) {
	p := NewPlan()
	loads := []float64{0.1, 0.2, 0.3}
	h1 := p.AddSweep(tinySweep(loads))
	h2 := p.AddSweep(tinySweep(loads)) // a second figure asking for the same points
	other := tinySweep(loads)
	other.Work.Pattern = PatternSpec{Kind: HotSpot, HotX: 0.05}
	h3 := p.AddSweep(other)

	if err := p.Execute(context.Background(), Options{}); err != nil {
		t.Fatal(err)
	}
	c := p.Counters()
	if c.Requested != 9 || c.Unique != 6 {
		t.Fatalf("requested %d unique %d, want 9 requested / 6 unique", c.Requested, c.Unique)
	}
	if c.Executed != c.Unique {
		t.Errorf("executed %d, want %d (one execution per unique point)", c.Executed, c.Unique)
	}
	p1, err := h1.Points()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := h2.Points()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Error("deduplicated sweeps returned different points")
	}
	p3, err := h3.Points()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(p1, p3) {
		t.Error("distinct workloads returned identical points")
	}
}

func TestAddFuncRunsUncached(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		p := NewPlan()
		calls := 0
		h := p.AddFunc(3, func(i int) (metrics.Point, error) {
			calls++
			return metrics.Point{Offered: float64(i)}, nil
		})
		if err := p.Execute(context.Background(), Options{Store: store, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		if calls != 3 {
			t.Fatalf("round %d: fn called %d times, want 3 (opaque points must never be cached)", round, calls)
		}
		pts, err := h.Points()
		if err != nil {
			t.Fatal(err)
		}
		for i, pt := range pts {
			if pt.Offered != float64(i) {
				t.Errorf("point %d out of order: %+v", i, pt)
			}
		}
	}
}

func TestExecuteCancellation(t *testing.T) {
	p := NewPlan()
	h := p.AddSweep(tinySweep([]float64{0.1, 0.2, 0.3, 0.4}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Execute(ctx, Options{}); err == nil {
		t.Fatal("Execute ignored a cancelled context")
	}
	if _, err := h.Points(); err == nil {
		t.Fatal("Points succeeded on a cancelled plan")
	}
	// Re-executing the same plan with a live context completes it.
	if err := p.Execute(context.Background(), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Points(); err != nil {
		t.Fatalf("resume after cancellation failed: %v", err)
	}
}

// cancellingStore misses every key and cancels the plan's context on
// its first Get.
type cancellingStore struct {
	countingStore
	cancel context.CancelFunc
}

func (s *cancellingStore) Get(key string) (metrics.Point, bool) {
	s.cancel()
	return s.countingStore.Get(key)
}

// TestExecuteScanObservesCancellation: the cache scan checks ctx before
// every lookup, so a plan cancelled during the scan stops after the
// lookup in hand instead of reading the store for every point first;
// on a large cold plan over an HTTP store that is minutes.
func TestExecuteScanObservesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	store := &cancellingStore{cancel: cancel}
	p := NewPlan()
	p.AddSweep(tinySweep([]float64{0.1, 0.2, 0.3}))
	if err := p.Execute(ctx, Options{Workers: 1, Store: store}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute returned %v, want context.Canceled", err)
	}
	if store.gets != 1 {
		t.Errorf("%d store lookups after the first cancelled the plan, want 1", store.gets)
	}
}

// TestProgressIsSerialized: Progress is called under the plan's lock,
// so a callback that records without a lock of its own is race-free
// (the CI race leg runs this) and sees Done in order, ending at the
// plan's final counters.
func TestProgressIsSerialized(t *testing.T) {
	loads := make([]float64, 16)
	for i := range loads {
		loads[i] = 0.05 * float64(i+1)
	}
	p := NewPlan()
	p.AddSweep(tinySweep(loads))
	var snaps []Counters
	err := p.Execute(context.Background(), Options{Workers: 4, Progress: func(c Counters) { snaps = append(snaps, c) }})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Done < snaps[i-1].Done {
			t.Fatalf("snapshot %d has Done %d after %d", i, snaps[i].Done, snaps[i-1].Done)
		}
	}
	if last, final := snaps[len(snaps)-1], p.Counters(); last != final {
		t.Errorf("last snapshot %+v, plan counters %+v", last, final)
	}
}

func TestFingerprintStableInProcess(t *testing.T) {
	a, err := Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if a != b || len(a) != 32 {
		t.Fatalf("fingerprint unstable or malformed: %q vs %q", a, b)
	}
}
