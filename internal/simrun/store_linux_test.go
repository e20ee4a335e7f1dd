package simrun

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"minsim/internal/metrics"
)

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
