package topology_test

import (
	"reflect"
	"testing"

	"minsim/internal/topology"
	"minsim/internal/topology/graphtest"
)

// TestGraphCarvedFromSlabs pins how the view is allocated: a fixed
// handful of slabs sized in closed form, whatever the network — per-
// switch or per-link slices would bring back a million small
// allocations at 16K nodes without failing any structural test — and
// a description that allocates nothing but itself.
func TestGraphCarvedFromSlabs(t *testing.T) {
	var nets []*topology.Network
	for _, cfg := range append(allUniConfigs(),
		topology.UniConfig{K: 2, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1, Extra: 2},
		topology.UniConfig{K: 4, Stages: 2, Pattern: topology.Butterfly, Dilation: 2, VCs: 1, Extra: 1},
	) {
		net, err := topology.NewUnidirectional(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		nets = append(nets, net)
	}
	for _, vcs := range []int{1, 3} {
		net, err := topology.NewBMINVC(4, 3, vcs)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net)
	}
	for _, net := range nets {
		var g *graphtest.Graph
		if allocs := testing.AllocsPerRun(3, func() { g = graphtest.New(net) }); allocs > 9 {
			t.Errorf("%s: Graph() makes %.0f allocations, want its 8 slabs and itself", net.Name(), allocs)
		}
		if len(g.Channels) != cap(g.Channels) || len(g.Links) != cap(g.Links) || len(g.Switches) != cap(g.Switches) {
			t.Errorf("%s: channels %d/%d, links %d/%d, switches %d/%d (len/cap)", net.Name(),
				len(g.Channels), cap(g.Channels), len(g.Links), cap(g.Links), len(g.Switches), cap(g.Switches))
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := topology.NewUnidirectional(topology.UniConfig{K: 2, Stages: 16, Pattern: topology.Cube, Dilation: 1, VCs: 1}); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("describing a 64K-node TMIN makes %.0f allocations, want 1", allocs)
	}
}

// TestNetworkIsPlainData: a Network is numbers all the way down — no
// slice, map or pointer a struct view could be parked behind — so
// whatever holds one (a point run, an engine) retains a few words,
// and a reader can never find a field that some earlier call was
// supposed to fill.
func TestNetworkIsPlainData(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				check(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Int, reflect.Int8, reflect.Uint8, reflect.Bool:
		default:
			t.Errorf("%s is a %s", path, typ.Kind())
		}
	}
	check("Network", reflect.TypeOf(topology.Network{}))
	if size := reflect.TypeOf(topology.Network{}).Size(); size > 256 {
		t.Errorf("a Network is %d bytes, want a few words", size)
	}
}
