package simrun

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"minsim/internal/metrics"
	"minsim/internal/topology"
)

// specLineSink keeps RunSpec.String's result alive in
// TestStorePathAllocatesNothing.
var specLineSink string

// TestStorePathAllocatesNothing pins what a point's trip through the
// disk store allocates: a Get that hits and one that misses allocate
// nothing (the entry's name is built on the stack and handed to openat
// directly), nor does a Put on amd64 (temp name, entry name, the
// entry's bytes: all on the stack), and the spec line Plan.Execute
// hands to Put costs one allocation, its string. Before names were
// built on the stack a Get cost 2 allocations and a Put 5; the spec
// line below cost 16 through nested fmt calls.
func TestStorePathAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	store, err := NewStore(tempDir(t))
	if err != nil {
		t.Fatal(err)
	}
	p := metrics.Point{Offered: 0.35, Throughput: 0.3412, LatencyCyc: 612.25, Messages: 9001, Sustainable: true, Replicas: 1}
	rs := RunSpec{
		Net:  NetworkSpec{Kind: topology.DMIN, Pattern: topology.Cube, K: 4, Stages: 3},
		Work: WorkloadSpec{Cluster: Cluster16, Pattern: PatternSpec{Kind: HotSpot, HotX: 0.05}},
		Load: 0.35, Warmup: 40_000, Measure: 120_000, Seed: DeriveSeed(1995, 3),
	}
	spec := rs.String()
	store.Put(testKey, spec, p)
	absent := fmt.Sprintf("%064x", 3)
	type pin struct {
		name string
		run  func()
		want float64
	}
	pins := []pin{
		{"Get (hit)", func() {
			if _, ok := store.Get(testKey); !ok {
				t.Fatal("Get missed")
			}
		}, 0},
		{"Get (miss)", func() {
			if _, ok := store.Get(absent); ok {
				t.Fatal("Get hit")
			}
		}, 0},
		{"RunSpec.String", func() { specLineSink = rs.String() }, 1},
	}
	if runtime.GOARCH == "amd64" {
		pins = append(pins, pin{"Put", func() { store.Put(testKey, spec, p) }, 0})
	}
	for _, c := range pins {
		if got := testing.AllocsPerRun(100, c.run); got != c.want {
			t.Errorf("%s: %v allocations a call, want %v", c.name, got, c.want)
		}
	}
	if st := store.Stats(); st.WriteFails != 0 {
		t.Errorf("stats = %+v, want no write failures", st)
	}
}

// TestEntryNamesTheKernelRefuses holds a store's answers on keys whose
// entry names the kernel takes or refuses to what the store answered
// when it named entries through package syscall (each row was recorded
// there): a NUL in a name and a name longer than NAME_MAX (255 bytes)
// are refused, a '/' makes the name a path into a directory that does
// not exist, and a 255-byte name is an ordinary entry. A refused key's
// Put counts one write failure and leaves no temp file; its Get misses.
func TestEntryNamesTheKernelRefuses(t *testing.T) {
	p := metrics.Point{Offered: 0.2, Throughput: 0.19, LatencyCyc: 45, Messages: 12, Sustainable: true}
	for _, c := range []struct {
		name string
		key  string
		hit  bool
		want StoreStats
	}{
		{"interior NUL", testKey[:10] + "\x00" + testKey[11:], false, StoreStats{Misses: 1, WriteFails: 1}},
		{"trailing NUL", testKey + "\x00", false, StoreStats{Misses: 1, WriteFails: 1}},
		{"slash", testKey[:32] + "/" + testKey[33:], false, StoreStats{Misses: 1, WriteFails: 1}},
		{"255-byte name", strings.Repeat("a", nameMax-len(entryExt)), true, StoreStats{Hits: 1}},
		{"256-byte name", strings.Repeat("a", nameMax+1-len(entryExt)), false, StoreStats{Misses: 1, WriteFails: 1}},
		{"4096-byte name", strings.Repeat("a", 4096), false, StoreStats{Misses: 1, WriteFails: 1}},
		{"empty key", "", true, StoreStats{Hits: 1}},
	} {
		dir := tempDir(t)
		store, err := NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		store.Put(c.key, "spec", p)
		got, ok := store.Get(c.key)
		if ok != c.hit || (ok && got != p) {
			t.Errorf("%s: Get = %+v, %t; want a hit: %t", c.name, got, ok, c.hit)
		}
		if st := store.Stats(); st != c.want {
			t.Errorf("%s: stats = %+v, want %+v", c.name, st, c.want)
		}
		files := 0 // the entry, if the name was taken; never a temp file
		if c.hit {
			files = 1
		}
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != files {
			t.Errorf("%s: the store's directory holds %d files (%v), want %d", c.name, len(ents), err, files)
		}
	}
}

// TestPutFailureLeavesNothing: a Put whose rename fails, because the
// entry's name is taken by a non-empty directory, counts one write
// failure and leaves no temp file and no open descriptor in the
// store's directory. A Put that succeeds leaves its entry 0600, as
// os.CreateTemp would, and a second Put replaces it.
func TestPutFailureLeavesNothing(t *testing.T) {
	dir := tempDir(t)
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	blocked := filepath.Join(dir, testKey+entryExt)
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(blocked, "x"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	p := metrics.Point{Offered: 0.4, Throughput: 0.38, LatencyCyc: 71.25, Messages: 512, Sustainable: true}
	store.Put(testKey, "spec", p)
	if st := store.Stats(); st.WriteFails != 1 {
		t.Errorf("a Put onto a directory: stats = %+v, want 1 write failure", st)
	}
	noTemps := func() {
		t.Helper()
		if tmps, err := filepath.Glob(filepath.Join(dir, ".tmp-*")); err != nil || len(tmps) != 0 {
			t.Errorf("temp files left in the store: %v %v", tmps, err)
		}
		if self, inside := descriptorsIn(t, dir); self != 1 || inside != 0 {
			t.Errorf("%d descriptors name the store's directory (want the store's 1) and %d name a file in it (want 0)", self, inside)
		}
	}
	noTemps()

	key := fmt.Sprintf("%064x", 2)
	store.Put(key, "spec", p)
	info, err := os.Stat(filepath.Join(dir, key+entryExt))
	if err != nil {
		t.Fatal(err)
	}
	if mode := info.Mode(); mode != 0o600 {
		t.Errorf("entry mode = %v, want -rw-------", mode)
	}
	q := p
	q.Messages++
	store.Put(key, "spec", q)
	if got, ok := store.Get(key); !ok || got != q {
		t.Errorf("after a second Put, Get = %+v, %t; want %+v", got, ok, q)
	}
	if st := store.Stats(); st.WriteFails != 1 {
		t.Errorf("stats = %+v, want the 1 write failure only", st)
	}
	noTemps()
}

// TestDroppedStoresCloseTheirDirectory opens 1000 stores on one
// directory, gives each a Put and a Get, and drops them unclosed (there
// is no Close): once they are collected, no descriptor may name the
// directory or anything in it.
func TestDroppedStoresCloseTheirDirectory(t *testing.T) {
	dir := tempDir(t)
	p := metrics.Point{Offered: 0.1, Throughput: 0.1, LatencyCyc: 40, Messages: 77}
	for i := 0; i < 1000; i++ {
		store, err := NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		store.Put(testKey, "spec", p)
		if got, ok := store.Get(testKey); !ok || got != p {
			t.Fatalf("store %d: Get = %+v, %t", i, got, ok)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		self, inside := descriptorsIn(t, dir)
		if self == 0 && inside == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("10 s after 1000 stores were dropped, %d descriptors still name their directory and %d a file in it", self, inside)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
