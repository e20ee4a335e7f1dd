package topology

import "testing"

// TestBuildersPresizeExactly pins the closed-form capacities the
// builders allocate up front: a count that drifts from what the build
// loops append would silently bring back growslice copies (or waste
// memory) at 16K nodes without failing any structural test.
func TestBuildersPresizeExactly(t *testing.T) {
	var nets []*Network
	for _, cfg := range append(allUniConfigs(),
		UniConfig{K: 2, Stages: 3, Pattern: Cube, Dilation: 1, VCs: 1, Extra: 2},
		UniConfig{K: 4, Stages: 2, Pattern: Butterfly, Dilation: 2, VCs: 1, Extra: 1},
	) {
		net, err := NewUnidirectional(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		nets = append(nets, net)
	}
	for _, vcs := range []int{1, 3} {
		net, err := NewBMINVC(4, 3, vcs)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net)
	}
	for _, net := range nets {
		if len(net.Channels) != cap(net.Channels) || len(net.Links) != cap(net.Links) || len(net.Switches) != cap(net.Switches) {
			t.Errorf("%s: channels %d/%d, links %d/%d, switches %d/%d (len/cap)", net.Name(),
				len(net.Channels), cap(net.Channels), len(net.Links), cap(net.Links), len(net.Switches), cap(net.Switches))
		}
	}
}
