package minsim

import (
	"runtime"
	"testing"
)

// TestAnalysesStayOffTheGraph bounds what PathCount allocates on
// 16384-node networks: the routing function's walker and the paths it
// returns, not a struct form of every channel (which cost 27.9 MB on
// the TMIN and 49.9 MB on the BMIN). On the BMIN, nodes 1 and N-2
// differ first in the top digit, so Theorem 1 gives 4^6 = 4096 paths
// of 14 channels: about 0.5 MB of output.
func TestAnalysesStayOffTheGraph(t *testing.T) {
	for _, c := range []struct {
		kind  Kind
		paths int
		bound uint64
	}{
		{TMIN, 1, 64 << 10},
		{BMIN, 4096, 2 << 20},
	} {
		net, err := NewNetwork(NetworkConfig{Kind: c.kind, K: 4, Stages: 7})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := net.PathCount(1, net.Nodes()-2)
		runtime.ReadMemStats(&after)
		if err != nil || n != c.paths {
			t.Fatalf("%s: PathCount(1, N-2) = %d, %v; want %d", net.Name(), n, err, c.paths)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: PathCount allocated %.1f KB", net.Name(), float64(got)/1e3)
		if got >= c.bound {
			t.Errorf("%s: PathCount allocated %d bytes, want < %d", net.Name(), got, c.bound)
		}
	}
}
