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
	nets := &NetCache{}
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

// TestNetCacheConcurrentGet is for the race detector: many callers,
// few networks, one build each.
func TestNetCacheConcurrentGet(t *testing.T) {
	c := &NetCache{}
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
