package simrun

import (
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
	} {
		_, buildErr := spec.Build()
		checkErr := spec.Check()
		if (buildErr == nil) != (checkErr == nil) || (buildErr != nil && buildErr.Error() != checkErr.Error()) {
			t.Errorf("%+v:\n Build: %v\n Check: %v", spec, buildErr, checkErr)
		}
	}
}
