package routing

import (
	"runtime"
	"testing"

	"minsim/internal/topology"
	"minsim/internal/topology/graphtest"
)

func mustUni(t *testing.T, cfg topology.UniConfig) *topology.Network {
	t.Helper()
	net, err := topology.NewUnidirectional(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func mustBMIN(t *testing.T, k, n int) *topology.Network {
	t.Helper()
	net, err := topology.NewBMIN(k, n)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNewSelectsRouter(t *testing.T) {
	uni := mustUni(t, topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	if _, ok := graphtest.RouterFor(uni).(graphtest.DestinationTag); !ok {
		t.Error("unidirectional network did not get DestinationTag router")
	}
	b := mustBMIN(t, 4, 3)
	if _, ok := graphtest.RouterFor(b).(graphtest.Turnaround); !ok {
		t.Error("BMIN did not get Turnaround router")
	}
}

// TestAllPathsDelivery: every enumerated path in every network kind
// terminates at the destination; path counts match theory.
func TestAllPathsDelivery(t *testing.T) {
	type tc struct {
		name  string
		net   *topology.Network
		paths func(src, dst int) int // expected number of paths
	}
	tmin := mustUni(t, topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	dmin := mustUni(t, topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 2, VCs: 1})
	vmin := mustUni(t, topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 2})
	bmin := mustBMIN(t, 4, 3)
	cases := []tc{
		{"TMIN", tmin, func(s, d int) int { return 1 }},
		// DMIN: d choices at each of the n-1 interstage hops.
		{"DMIN", dmin, func(s, d int) int { return 4 }},
		// VMIN: m virtual channels at each interstage hop.
		{"VMIN", vmin, func(s, d int) int { return 4 }},
		// BMIN: Theorem 1, k^t shortest paths.
		{"BMIN", bmin, func(s, d int) int {
			tt, _ := bmin.R.FirstDifference(s, d)
			n := 1
			for i := 0; i < tt; i++ {
				n *= 4
			}
			return n
		}},
	}
	for _, c := range cases {
		for src := 0; src < c.net.Nodes; src += 7 {
			for dst := 0; dst < c.net.Nodes; dst++ {
				if src == dst {
					continue
				}
				paths := AllPaths(c.net, src, dst)
				if len(paths) != c.paths(src, dst) {
					t.Fatalf("%s: %d->%d has %d paths, want %d", c.name, src, dst, len(paths), c.paths(src, dst))
				}
				for _, p := range paths {
					last := c.net.ChannelAt(p[len(p)-1])
					if !last.To.IsNode() || last.To.Node != dst {
						t.Fatalf("%s: path %d->%d misdelivered", c.name, src, dst)
					}
				}
			}
		}
	}
}

// TestTheorem1 exhaustively verifies the k^t shortest-path count for
// several BMIN sizes, including the 2x2 (Fig. 9) and 4x4 (Fig. 10)
// examples.
func TestTheorem1(t *testing.T) {
	for _, kn := range [][2]int{{2, 3}, {2, 4}, {4, 2}, {4, 3}} {
		net := mustBMIN(t, kn[0], kn[1])
		for src := 0; src < net.Nodes; src++ {
			for dst := 0; dst < net.Nodes; dst++ {
				if src == dst {
					continue
				}
				tt, _ := net.R.FirstDifference(src, dst)
				want := 1
				for i := 0; i < tt; i++ {
					want *= kn[0]
				}
				paths := AllPaths(net, src, dst)
				if len(paths) != want {
					t.Fatalf("BMIN(%d,%d) %d->%d: %d paths, want k^%d = %d",
						kn[0], kn[1], src, dst, len(paths), tt, want)
				}
				// Every path has length 2(t+1) — the paper's path-length formula.
				for _, p := range paths {
					if p.Length() != 2*(tt+1) {
						t.Fatalf("BMIN(%d,%d) %d->%d: path length %d, want %d",
							kn[0], kn[1], src, dst, p.Length(), 2*(tt+1))
					}
				}
			}
		}
	}
}

// TestFig9Examples reproduces Fig. 9: in an 8-node 2x2 BMIN,
// FirstDifference = 2 gives four shortest paths and FirstDifference = 1
// gives two.
func TestFig9Examples(t *testing.T) {
	net := mustBMIN(t, 2, 3)
	// S = 001, D = 101: t = 2, 4 paths (also the Fig. 8 example).
	if got := len(AllPaths(net, 0b001, 0b101)); got != 4 {
		t.Errorf("001->101: %d paths, want 4", got)
	}
	// t = 1 gives 2 paths, e.g. 000 -> 010.
	if got := len(AllPaths(net, 0b000, 0b010)); got != 2 {
		t.Errorf("000->010: %d paths, want 2", got)
	}
	// t = 0 gives 1 path.
	if got := len(AllPaths(net, 0b000, 0b001)); got != 1 {
		t.Errorf("000->001: %d paths, want 1", got)
	}
}

// TestUnidirectionalPathLength: path length is the constant n+1.
func TestUnidirectionalPathLength(t *testing.T) {
	for _, pat := range []topology.Pattern{topology.Cube, topology.Butterfly} {
		net := mustUni(t, topology.UniConfig{K: 4, Stages: 3, Pattern: pat, Dilation: 1, VCs: 1})
		for src := 0; src < net.Nodes; src += 5 {
			for dst := 0; dst < net.Nodes; dst++ {
				if src == dst {
					continue
				}
				if p := OnePath(net, src, dst); p.Length() != net.Stages+1 {
					t.Fatalf("path %d->%d length %d, want %d", src, dst, p.Length(), net.Stages+1)
				}
			}
		}
	}
}

// TestTurnaroundMatchesFirstDifference: the distributed subtree check
// turns exactly at stage t = FirstDifference(S, D) (Fig. 7 step 2).
func TestTurnaroundMatchesFirstDifference(t *testing.T) {
	net := mustBMIN(t, 4, 3)
	for src := 0; src < net.Nodes; src++ {
		for dst := 0; dst < net.Nodes; dst++ {
			if src == dst {
				continue
			}
			want, _ := net.R.FirstDifference(src, dst)
			for _, p := range AllPaths(net, src, dst) {
				// The turnaround switch is the switch at the deepest
				// point: channel index t is the last forward channel.
				turn := -1
				for i, c := range p {
					if _, _, dir := net.Address(c); dir == topology.Backward {
						turn = i - 1
						break
					}
				}
				if turn < 0 {
					t.Fatalf("path %d->%d has no backward segment", src, dst)
				}
				stage := net.StageEntered(p[turn])
				if stage != want {
					t.Fatalf("path %d->%d turned at stage %d, want %d", src, dst, stage, want)
				}
				// Forward and backward segments have equal length
				// (Definition 4).
				if 2*(turn+1) != len(p) {
					t.Fatalf("path %d->%d: %d forward channels of %d total", src, dst, turn+1, len(p))
				}
			}
		}
	}
}

// TestDefinition4NoPortPairReuse: no forward and backward channel on a
// shortest path belong to the same port (the paper's redundancy-free
// condition). With shortest paths this holds automatically.
func TestDefinition4NoPortPairReuse(t *testing.T) {
	net := mustBMIN(t, 2, 3)
	for src := 0; src < net.Nodes; src++ {
		for dst := 0; dst < net.Nodes; dst++ {
			if src == dst {
				continue
			}
			for _, p := range AllPaths(net, src, dst) {
				wires := map[[2]int]topology.Dir{}
				for _, c := range p {
					layer, wire, dir := net.Address(c)
					key := [2]int{layer, wire}
					if prev, ok := wires[key]; ok && prev != dir {
						t.Fatalf("path %d->%d uses both channels of wire %v", src, dst, key)
					}
					wires[key] = dir
				}
			}
		}
	}
}

// TestFig11Blocking reproduces the paper's blocking example: in the
// 8-node 2x2 BMIN, the message 011->111 and the message 001->110
// contend for a common backward channel for some choices of forward
// path, demonstrating the network is blocking; yet a contention-free
// assignment may still exist for other pairs.
func TestFig11Blocking(t *testing.T) {
	net := mustBMIN(t, 2, 3)
	a := AllPaths(net, 0b011, 0b111)
	b := AllPaths(net, 0b001, 0b110)
	conflict := false
	for _, pa := range a {
		for _, pb := range b {
			if SharesChannel(pa, pb) {
				conflict = true
			}
		}
	}
	if !conflict {
		t.Error("expected some path pair of 011->111 and 001->110 to share a channel")
	}
}

// TestShufflePermutationContentionFreeOnBMIN verifies the paper's
// Section 5.3.3 claim: on a BMIN, "theoretically, all source and
// destination pairs can be transmitted simultaneously without
// contention if the forward channel is properly chosen" — for the
// shuffle permutation a channel-disjoint assignment exists.
func TestShufflePermutationContentionFreeOnBMIN(t *testing.T) {
	net := mustBMIN(t, 2, 3)
	var pairs [][2]int
	perm := net.R.ShufflePerm()
	for s := 0; s < net.Nodes; s++ {
		if perm[s] != s {
			pairs = append(pairs, [2]int{s, perm[s]})
		}
	}
	if _, ok := ContentionFreeAssignment(net, pairs); !ok {
		t.Error("no contention-free assignment found for shuffle permutation on BMIN")
	}
}

// TestTMINPermutationContention shows the contrast: the TMIN has a
// unique path per pair and the shuffle permutation cannot be routed
// contention-free on the 64-node cube TMIN (channels shared by up to
// four pairs, Section 5.3.3).
func TestTMINPermutationContention(t *testing.T) {
	net := mustUni(t, topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	perm := net.R.ShufflePerm()
	use := map[int]int{}
	peak := 0
	for s := 0; s < net.Nodes; s++ {
		if perm[s] == s {
			continue
		}
		for _, c := range OnePath(net, s, perm[s]) {
			use[c]++
			if use[c] > peak {
				peak = use[c]
			}
		}
	}
	if peak < 2 {
		t.Errorf("expected channel sharing under shuffle permutation, peak use = %d", peak)
	}
}

func TestOnePathDeterministic(t *testing.T) {
	net := mustUni(t, topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Butterfly, Dilation: 2, VCs: 1})
	p1 := OnePath(net, 3, 42)
	p2 := OnePath(net, 3, 42)
	if len(p1) != len(p2) {
		t.Fatal("OnePath not deterministic")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("OnePath not deterministic")
		}
	}
}

func TestAllPathsPanicsOnSelf(t *testing.T) {
	net := mustBMIN(t, 2, 2)
	defer func() {
		if recover() == nil {
			t.Error("AllPaths(src == dst) did not panic")
		}
	}()
	AllPaths(net, 1, 1)
}

// TestAnalysesStayOffTheGraph bounds what AllPaths allocates on
// 16384-node networks: the routing function's walker and the paths it
// returns, not a struct form of every channel (which cost 27.9 MB on
// the TMIN and 49.9 MB on the BMIN). On the BMIN, nodes 1 and N-2
// differ first in the top digit, so Theorem 1 gives 4^6 = 4096 paths
// of 14 channels: about 0.5 MB of output.
func TestAnalysesStayOffTheGraph(t *testing.T) {
	for _, c := range []struct {
		net   *topology.Network
		paths int
		bound uint64
	}{
		{mustUni(t, topology.UniConfig{K: 4, Stages: 7, Dilation: 1, VCs: 1}), 1, 64 << 10},
		{mustBMIN(t, 4, 7), 4096, 2 << 20},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := len(AllPaths(c.net, 1, c.net.Nodes-2))
		runtime.ReadMemStats(&after)
		if n != c.paths {
			t.Fatalf("%s: %d paths from 1 to N-2, want %d", c.net.Name(), n, c.paths)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: AllPaths allocated %.1f KB", c.net.Name(), float64(got)/1e3)
		if got >= c.bound {
			t.Errorf("%s: AllPaths allocated %d bytes, want < %d", c.net.Name(), got, c.bound)
		}
	}
}
