package fattree

import (
	"testing"

	"minsim/internal/kary"
	"minsim/internal/routing"
	"minsim/internal/topology"
)

func TestStructure(t *testing.T) {
	r := kary.MustNew(2, 4) // the 16-node fat tree of Fig. 13
	ft := New(r)
	if ft.Levels() != 4 {
		t.Fatalf("levels = %d", ft.Levels())
	}
	// Vertices per level: 8, 4, 2, 1.
	for l, want := range map[int]int{1: 8, 2: 4, 3: 2, 4: 1} {
		if got := ft.Vertices(l); got != want {
			t.Errorf("Vertices(%d) = %d, want %d", l, got, want)
		}
	}
	// Capacity law: 2, 4, 8, 16.
	for l, want := range map[int]int{1: 2, 2: 4, 3: 8, 4: 16} {
		if got := ft.Capacity(l); got != want {
			t.Errorf("Capacity(%d) = %d, want %d", l, got, want)
		}
	}
	// Leaves of level-2 vertex 1: {4,5,6,7}.
	leaves := ft.Leaves(2, 1)
	if len(leaves) != 4 || leaves[0] != 4 || leaves[3] != 7 {
		t.Errorf("Leaves(2,1) = %v", leaves)
	}
	for _, leaf := range leaves {
		if ft.VertexOf(leaf, 2) != 1 {
			t.Errorf("VertexOf(%d, 2) != 1", leaf)
		}
	}
}

func TestLCALevel(t *testing.T) {
	r := kary.MustNew(2, 3)
	ft := New(r)
	cases := []struct{ s, d, want int }{
		{0, 1, 1}, // siblings
		{0, 2, 2},
		{0, 4, 3},
		{1, 5, 3}, // the Fig. 8 pair 001 -> 101
		{6, 7, 1},
	}
	for _, c := range cases {
		if got := ft.LCALevel(c.s, c.d); got != c.want {
			t.Errorf("LCALevel(%d, %d) = %d, want %d", c.s, c.d, got, c.want)
		}
	}
}

// TestRouteLengthMatchesTurnaround: for every pair, the LCA route
// length equals the turnaround path length on the real BMIN.
func TestRouteLengthMatchesTurnaround(t *testing.T) {
	for _, kn := range [][2]int{{2, 3}, {4, 2}, {4, 3}} {
		r := kary.MustNew(kn[0], kn[1])
		ft := New(r)
		net, err := topology.NewBMIN(kn[0], kn[1])
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < net.Nodes; s++ {
			for d := 0; d < net.Nodes; d++ {
				if s == d {
					continue
				}
				want := ft.RouteLength(s, d)
				if got := routing.OnePath(net, s, d).Length(); got != want {
					t.Fatalf("BMIN(%d,%d) %d->%d: path length %d, fat tree says %d",
						kn[0], kn[1], s, d, got, want)
				}
			}
		}
	}
}

// TestUpPathsMatchesTheorem1: the number of up-route prefixes times
// one equals Theorem 1's k^t count with t = LCALevel - 1.
func TestUpPathsMatchesTheorem1(t *testing.T) {
	r := kary.MustNew(4, 3)
	ft := New(r)
	net, _ := topology.NewBMIN(4, 3)
	for s := 0; s < net.Nodes; s += 5 {
		for d := 0; d < net.Nodes; d++ {
			if s == d {
				continue
			}
			l := ft.LCALevel(s, d)
			// Theorem 1: k^t paths with t = l-1; UpPaths(l) = k^{l-1}.
			if got := len(routing.AllPaths(net, s, d)); got != ft.UpPaths(l) {
				t.Fatalf("%d->%d: %d paths, fat tree says %d", s, d, got, ft.UpPaths(l))
			}
		}
	}
}

func TestVerifyAgainstBMIN(t *testing.T) {
	for _, kn := range [][2]int{{2, 3}, {2, 4}, {4, 2}, {4, 3}, {8, 2}} {
		r := kary.MustNew(kn[0], kn[1])
		net, err := topology.NewBMIN(kn[0], kn[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyAgainstBMIN(New(r), net); err != nil {
			t.Errorf("BMIN(%d,%d): %v", kn[0], kn[1], err)
		}
	}
}

func TestVerifyRejectsNonBMIN(t *testing.T) {
	net, _ := topology.NewUnidirectional(topology.UniConfig{K: 2, Stages: 3, Dilation: 1, VCs: 1})
	if err := VerifyAgainstBMIN(New(kary.MustNew(2, 3)), net); err == nil {
		t.Error("unidirectional network accepted")
	}
	bnet, _ := topology.NewBMIN(2, 3)
	if err := VerifyAgainstBMIN(New(kary.MustNew(2, 4)), bnet); err == nil {
		t.Error("radix mismatch accepted")
	}
}

func TestPanics(t *testing.T) {
	ft := New(kary.MustNew(2, 3))
	for name, f := range map[string]func(){
		"Vertices(0)":   func() { ft.Vertices(0) },
		"Vertices(4)":   func() { ft.Vertices(4) },
		"LCALevel self": func() { ft.LCALevel(2, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
