package engine

import (
	"runtime"
	"testing"

	"minsim/internal/topology"
)

// TestNewAllocatesOnlyItsArrays: an engine reads the network through
// its closed form, so building one over the 16K-node TMIN of the
// large-n workload allocates the engine's own per-channel and per-node
// arrays — a 4 B owner slot per channel, and per node a queue header, a
// prefetched arrival and a heap slot: 4 B x 245,760 + (24 + 32 + 12) B
// x 16,384 = 2.10 MB — and nothing near the 64 MB of the network's
// struct view, which the bound below could not hold. A VMIN adds its link map
// and budgets (4 B per channel, 8 B per link), 6.75 MB in all. A DMIN
// with three channels per wire routes in the same closed form as the
// others: its 671,744 owners and the per-node arrays, 3.80 MB, are all it
// costs, where a table of every (channel, destination) candidate set
// would run to tens of gigabytes.
func TestNewAllocatesOnlyItsArrays(t *testing.T) {
	for _, tc := range []struct {
		cfg   topology.UniConfig
		bound uint64
	}{
		{topology.UniConfig{K: 2, Stages: 14, Pattern: topology.Cube, Dilation: 1, VCs: 1}, 2_500_000},
		{topology.UniConfig{K: 2, Stages: 14, Pattern: topology.Cube, Dilation: 1, VCs: 2}, 7_500_000},
		{topology.UniConfig{K: 2, Stages: 14, Pattern: topology.Cube, Dilation: 3, VCs: 1}, 4_500_000},
	} {
		net, err := topology.NewUnidirectional(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = New(Config{Net: net, Seed: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		if got > tc.bound {
			t.Errorf("%s: New allocated %d bytes, want at most %d", net.Name(), got, tc.bound)
		}
		t.Logf("%s: New allocated %.2f MB for %d channels", net.Name(), float64(got)/1e6, net.ChannelCount())
	}
}
