package simrun

import (
	"context"
	"sync"
	"testing"

	"minsim/internal/topology"
)

func netCacheSweep(p *Plan, net NetworkSpec, load float64) *Handle {
	return p.AddSweep(SweepSpec{
		Net:    net,
		Work:   WorkloadSpec{Pattern: PatternSpec{Kind: Uniform}},
		Loads:  []float64{load},
		Budget: Budget{WarmupCycles: 20, MeasureCycles: 100, Seed: 7},
	})
}

// TestNetCacheOutlivesExecute: plans executed one after another over
// a caller's cache build each network once, whichever way it is
// spelled; without one, every Execute builds its own.
func TestNetCacheOutlivesExecute(t *testing.T) {
	nets := NewNetCache()
	spellings := []NetworkSpec{
		{Kind: topology.VMIN, K: 4, Stages: 2},
		{Kind: topology.VMIN, K: 4, Stages: 2, VCs: 2},
		{Kind: topology.VMIN, K: 4, Stages: 2, VCs: 2, Dilation: 1},
	}
	for i, net := range spellings {
		p := NewPlan()
		h := netCacheSweep(p, net, 0.1+0.1*float64(i))
		if err := p.Execute(context.Background(), Options{Workers: 1, Nets: nets}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Points(); err != nil {
			t.Fatal(err)
		}
	}
	if n := nets.Builds(); n != 1 {
		t.Fatalf("three plans over one network built it %d times; want 1", n)
	}
}

// TestNetCacheBound: the retained channels never pass the bound; a
// network that would pass it empties the cache first, and one that
// can never fit is handed over without being kept.
func TestNetCacheBound(t *testing.T) {
	small := NetworkSpec{Kind: topology.TMIN, K: 2, Stages: 2}
	a, err := small.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := &NetCache{bound: 2*len(a.Channels) + 1}
	get := func(s NetworkSpec) *topology.Network {
		t.Helper()
		net, err := c.get(s)
		if err != nil {
			t.Fatal(err)
		}
		if c.channels > c.bound {
			t.Fatalf("after %s: %d channels retained, bound %d", s, c.channels, c.bound)
		}
		return net
	}
	first := get(small)
	get(NetworkSpec{Kind: topology.TMIN, K: 2, Stages: 2, Pattern: topology.Butterfly})
	if get(small) != first || c.Builds() != 2 {
		t.Fatalf("a retained network was rebuilt (%d builds)", c.Builds())
	}
	get(NetworkSpec{Kind: topology.TMIN, K: 2, Stages: 2, Extra: 1}) // third: passes the bound
	if len(c.m) != 1 {
		t.Fatalf("%d networks retained after passing the bound; want only the newest", len(c.m))
	}
	if get(small) == first {
		t.Fatal("an evicted network was still served")
	}
	before := len(c.m)
	big := NetworkSpec{Kind: topology.TMIN, K: 2, Stages: 5}
	if net := get(big); len(net.Channels) <= c.bound {
		t.Fatalf("test network has %d channels, not over the bound %d", len(net.Channels), c.bound)
	}
	if len(c.m) != before {
		t.Fatal("a network over the bound was retained or evicted others")
	}
	// A per-call cache over it still builds the big one only once.
	call := &NetCache{parent: c}
	builds := c.Builds()
	if x, _ := call.get(big); x == nil {
		t.Fatal("no network")
	}
	call.get(big)
	if c.Builds() != builds+1 {
		t.Fatalf("per-call cache built the oversize network %d times; want 1", c.Builds()-builds)
	}
}

// TestNetCacheConcurrentGet is for the race detector: many callers,
// few networks, one build each.
func TestNetCacheConcurrentGet(t *testing.T) {
	c := NewNetCache()
	specs := []NetworkSpec{
		{Kind: topology.TMIN, K: 2, Stages: 3},
		{Kind: topology.DMIN, K: 2, Stages: 3},
		{Kind: topology.BMIN, K: 2, Stages: 3},
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			call := &NetCache{parent: c}
			for i := 0; i < 30; i++ {
				if _, err := call.get(specs[(g+i)%len(specs)]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := c.Builds(); n != int64(len(specs)) {
		t.Fatalf("%d builds for %d networks", n, len(specs))
	}
}
