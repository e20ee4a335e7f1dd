package storetest_test

import (
	"os"
	"path/filepath"
	"testing"

	"minsim/internal/simrun"
	"minsim/internal/simrun/storetest"
)

// TestDiskStoreConformance runs the shared Store contract against the
// local disk implementation. The remote-store side of the same suite
// lives in internal/fleet, next to the coordinator it needs.
func TestDiskStoreConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) storetest.Fixture {
		dir := filepath.Join(t.TempDir(), "cache")
		s, err := simrun.NewStore(dir)
		if err != nil {
			t.Fatalf("NewStore: %v", err)
		}
		return storetest.Fixture{
			Store: s,
			Corrupt: func(key string) {
				if err := os.WriteFile(filepath.Join(dir, key+".entry"), []byte("not an entry"), 0o644); err != nil {
					t.Fatalf("corrupting entry: %v", err)
				}
			},
			FailWrites: func() {
				// Turn the cache directory into a regular file: every
				// temp-file creation inside it now fails. (Permission
				// tricks don't work when tests run as root.)
				if err := os.RemoveAll(dir); err != nil {
					t.Fatalf("removing cache dir: %v", err)
				}
				if err := os.WriteFile(dir, nil, 0o644); err != nil {
					t.Fatalf("blocking cache dir: %v", err)
				}
			},
		}
	})
}
