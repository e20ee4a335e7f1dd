package fleet

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"minsim/internal/metrics"
	"minsim/internal/simrun"
	"minsim/internal/simrun/storetest"
)

// TestRemoteStoreConformance runs the shared Store contract against
// the HTTP remote store, backed by a real coordinator handler over a
// real disk store. Corruption is injected by damaging the backing
// disk entry; write failures by making the coordinator 500 every PUT.
func TestRemoteStoreConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) storetest.Fixture {
		dir := filepath.Join(t.TempDir(), "cache")
		disk, err := simrun.NewStore(dir)
		if err != nil {
			t.Fatalf("NewStore: %v", err)
		}
		c, err := NewCoordinator(Config{Store: disk})
		if err != nil {
			t.Fatalf("NewCoordinator: %v", err)
		}
		var failing atomic.Bool
		h := c.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if failing.Load() && r.Method == http.MethodPut {
				http.Error(w, "injected store outage", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		return storetest.Fixture{
			Store: NewRemoteStore(srv.URL, srv.Client()),
			Corrupt: func(key string) {
				if err := os.WriteFile(filepath.Join(dir, key+".entry"), []byte("not an entry"), 0o644); err != nil {
					t.Fatalf("corrupting entry: %v", err)
				}
			},
			FailWrites: func() { failing.Store(true) },
		}
	})
}

// TestRemoteStoreUnreachableCoordinator pins the degradation mode the
// conformance suite cannot reach: with no coordinator at all, every
// Get is a miss and every Put a counted write failure — a detached
// worker recomputes, it does not crash.
func TestRemoteStoreUnreachableCoordinator(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close() // nothing listens here anymore

	s := NewRemoteStore(url, nil)
	if _, ok := s.Get(storetest.Key(1)); ok {
		t.Fatal("Get against a dead coordinator reported a hit")
	}
	s.Put(storetest.Key(1), "spec", metrics.Point{Offered: 0.1})
	st := s.Stats()
	if st.Misses != 1 || st.WriteFails != 1 {
		t.Fatalf("stats = %+v, want 1 miss and 1 write failure", st)
	}
}
