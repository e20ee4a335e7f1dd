package simrun

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"minsim/internal/topology"
)

// TestNetworkSpecCheckMatchesBuild: Check is Build's verdict without
// the build — the same error text on every spec Build rejects, nil on
// those it accepts, with the same defaults for zero-valued fields.
func TestNetworkSpecCheckMatchesBuild(t *testing.T) {
	for _, spec := range []NetworkSpec{
		{Kind: topology.TMIN, K: 4, Stages: 3},
		{Kind: topology.DMIN, K: 4, Stages: 2},               // dilation defaults to 2
		{Kind: topology.VMIN, K: 2, Stages: 3},               // VCs default to 2
		{Kind: topology.BMIN, K: 4, Stages: 2},               // VCs default to 1
		{Kind: topology.TMIN, K: 4, Stages: 2, Extra: 1},     // extra-stage
		{Kind: topology.Kind(99), K: 4, Stages: 3},           // unknown kind
		{Kind: topology.TMIN, K: 3, Stages: 3},               // k not a power of two
		{Kind: topology.BMIN, K: 6, Stages: 2},               // likewise, BMIN
		{Kind: topology.TMIN, K: 1, Stages: 3},               // radix below 2
		{Kind: topology.TMIN, K: 0, Stages: 3},               // zero radix
		{Kind: topology.TMIN, K: 4, Stages: 0},               // no stages
		{Kind: topology.BMIN, K: 4, Stages: -1},              // negative stages
		{Kind: topology.TMIN, K: 4, Stages: 40},              // k^n overflows
		{Kind: topology.BMIN, K: 2, Stages: 70},              // likewise, BMIN
		{Kind: topology.DMIN, K: 4, Stages: 2, Dilation: -1}, // negative dilation
		{Kind: topology.VMIN, K: 4, Stages: 2, VCs: -2},      // negative VCs
		{Kind: topology.BMIN, K: 4, Stages: 2, VCs: -1},      // likewise, BMIN
		{Kind: topology.TMIN, K: 4, Stages: 2, Extra: -1},    // negative extra stages
		{Kind: topology.TMIN, K: 2, Stages: 40},              // fits an int, not a run
		{Kind: topology.VMIN, K: 2, Stages: 16, VCs: 1 << 62},
		{Kind: topology.TMIN, K: 2, Stages: 1, Extra: 1<<63 - 1},
	} {
		_, buildErr := spec.Build()
		checkErr := spec.Check()
		if (buildErr == nil) != (checkErr == nil) || (buildErr != nil && buildErr.Error() != checkErr.Error()) {
			t.Errorf("%+v:\n Build: %v\n Check: %v", spec, buildErr, checkErr)
		}
	}
}

// TestNetworkSpecBoundsChannels: a description is free to parse and to
// build, so its size is bounded where it is checked. The count in the
// error is the closed form the topology reports, rounded where that
// would overflow.
func TestNetworkSpecBoundsChannels(t *testing.T) {
	for _, spec := range []NetworkSpec{
		{Kind: topology.TMIN, K: 4, Stages: 3},
		{Kind: topology.DMIN, K: 4, Stages: 3, Dilation: 3, Extra: 2},
		{Kind: topology.VMIN, K: 2, Stages: 5, VCs: 4, Extra: 1},
		{Kind: topology.TMIN, K: 8, Stages: 1},
		{Kind: topology.BMIN, K: 4, Stages: 3, VCs: 3},
		{Kind: topology.BMIN, K: 2, Stages: 1},
		{Kind: topology.VMIN, K: 2, Stages: 16, VCs: 2}, // the largest network the repository runs
	} {
		net, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		cfg, bmin, _ := spec.builderArgs()
		if got := channelCount(net.Nodes, cfg, bmin); got != float64(net.ChannelCount()) {
			t.Errorf("%s: channelCount = %.0f, the network has %d", spec, got, net.ChannelCount())
		}
	}
	for _, tc := range []struct {
		spec  NetworkSpec
		count string
	}{
		{NetworkSpec{Kind: topology.TMIN, K: 2, Stages: 40}, "45079976738816"}, // 41 layers of 2^40
		{NetworkSpec{Kind: topology.BMIN, K: 4, Stages: 13}, "1744830464"},
		{NetworkSpec{Kind: topology.DMIN, K: 2, Stages: 2, Dilation: 1 << 40, Extra: 1 << 40}, "4835703278462914745335808"}, // about 4 x 2^80, past any int
	} {
		err := tc.spec.Check()
		if err == nil || !strings.Contains(err.Error(), tc.count) || !strings.Contains(err.Error(), "16777216") {
			t.Errorf("%+v: Check() = %v, want an error naming %s channels and the bound", tc.spec, err, tc.count)
		}
	}
	if got := channelCount(1<<20, topology.UniConfig{Stages: 20, Dilation: 1, VCs: 1, Extra: math.MaxInt - 5}, false); got < 1e24 {
		t.Errorf("channelCount wrapped on an overflowing stage count: %g", got)
	}
}

// TestNetworkSpecBuildIsFree: a built network is its description, so
// Build costs the same few words at 64K nodes as at 64.
func TestNetworkSpecBuildIsFree(t *testing.T) {
	spec := NetworkSpec{Kind: topology.TMIN, K: 2, Stages: 16}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	net, err := spec.Build()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<10 {
		t.Errorf("Build() of %s allocated %d bytes, want < 4 KB", spec, got)
	}
	if net.Nodes != 1<<16 || net.ChannelCount() != 17<<16 {
		t.Errorf("%s: %d nodes, %d channels", spec, net.Nodes, net.ChannelCount())
	}
}
