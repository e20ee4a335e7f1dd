package routing_test

// External test package for the same reason as table_test.go: the
// paper's evaluation specs live in internal/experiments, which
// imports routing.

import (
	"testing"

	"minsim/internal/experiments"
	"minsim/internal/routing"
	"minsim/internal/topology"
)

// checkFactoredEquivalence asserts the three-way property the engine
// relies on: for every (input channel, destination) pair the
// stage-factored lookup — asked the way the engine asks it, with the
// address the description's closed form gives the channel — expands to
// exactly the candidate list the Router finds walking the struct view,
// and to the dense table's row — same channels, same order (the order
// feeds the random pick, so it is part of the determinism contract).
func checkFactoredEquivalence(t *testing.T, net *topology.Graph, f *routing.Factored, tbl *routing.Table, r routing.Router) {
	t.Helper()
	var got, want []int
	for ci := range net.Channels {
		ch := &net.Channels[ci]
		if ch.To.IsNode() {
			continue // ejection channel: the engine never asks
		}
		layer, wire, dir := net.Address(ci)
		for dest := 0; dest < net.Nodes; dest++ {
			got = f.Expand(got[:0], layer, wire, dir, dest)
			want = r.Candidates(want[:0], net, ch, dest)
			if !equalInts(got, want) {
				t.Fatalf("%s: channel %d dest %d: factored %v, router %v",
					net.Name(), ci, dest, got, want)
			}
			if tbl != nil {
				row := tbl.Lookup(ci, dest)
				if len(row) != len(got) {
					t.Fatalf("%s: channel %d dest %d: factored %v, table %v",
						net.Name(), ci, dest, got, row)
				}
				for i := range row {
					if int(row[i]) != got[i] {
						t.Fatalf("%s: channel %d dest %d: factored %v, table %v",
							net.Name(), ci, dest, got, row)
					}
				}
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFactoredMatchesRouterPaperConfigs proves factored ≡ table ≡
// Router pairwise-exhaustively on the paper's five 64-node evaluation
// configurations, and pins the memory ratio the representation
// exists for.
func TestFactoredMatchesRouterPaperConfigs(t *testing.T) {
	for _, ns := range experiments.PaperSpecs() {
		desc, err := ns.Spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		f, err := routing.NewFactored(desc)
		if err != nil {
			t.Fatalf("%s: %v", ns.Name, err)
		}
		net := desc.Graph()
		tbl, err := routing.BuildTable(net)
		if err != nil {
			t.Fatalf("%s: %v", ns.Name, err)
		}
		checkFactoredEquivalence(t, net, f, tbl, routing.New(desc))
		if f.Bytes() >= tbl.Bytes() {
			t.Errorf("%s: factored %d bytes, not smaller than dense %d bytes", ns.Name, f.Bytes(), tbl.Bytes())
		}
		t.Logf("%s: factored %d bytes vs dense %d bytes", ns.Name, f.Bytes(), tbl.Bytes())
	}
}

// TestFactoredForSelection pins the dispatch contract at engine.New:
// nil and the family's own router take the factored path, custom
// routers and cross-family assignments fall back to the dense table.
func TestFactoredForSelection(t *testing.T) {
	uni, err := topology.NewUnidirectional(topology.UniConfig{
		K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 2, VCs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	bmin, err := topology.NewBMIN(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		net  *topology.Network
		r    routing.Router
		want bool
	}{
		{"uni/nil", uni, nil, true},
		{"uni/destination-tag", uni, routing.DestinationTag{}, true},
		{"uni/turnaround", uni, routing.Turnaround{}, false},
		{"bmin/nil", bmin, nil, true},
		{"bmin/turnaround", bmin, routing.Turnaround{}, true},
		{"bmin/destination-tag", bmin, routing.DestinationTag{}, false},
		{"uni/fault-aware", uni, routing.FaultAware{Inner: routing.New(uni)}, false},
	}
	for _, c := range cases {
		f, ok := routing.FactoredFor(c.net, c.r)
		if ok != c.want || (ok && f == nil) {
			t.Errorf("%s: FactoredFor ok = %v, want %v", c.name, ok, c.want)
		}
	}
}

// TestFactoredMatchesRouters is the check NewFactored used to make on
// every engine.New, over everything it can be asked to route: every
// family, pattern, arity, extra-stage count and power-of-two channel
// multiplicity, pairwise-exhaustively against the family's Router
// walking the struct view and against the dense table (networks past
// 64 nodes are left to TestFactoredLayout's O(channels) check).
func TestFactoredMatchesRouters(t *testing.T) {
	configs := 0
	for _, k := range []int{2, 4, 8} {
		for n := 1; n <= 4; n++ {
			for kind := uint8(0); kind < 4; kind++ {
				for _, pat := range []topology.Pattern{topology.Cube, topology.Butterfly, topology.Omega, topology.Baseline} {
					for _, dv := range []int{1, 2, 4} {
						for extra := 0; extra <= 2; extra++ {
							if kind == 0 && (pat != topology.Cube || extra != 0) || kind == 1 && dv != 1 || kind > 1 && dv == 1 {
								continue // a BMIN has one wiring; a TMIN is the d = m = 1 case
							}
							desc, err := fuzzNetwork(k, n, kind, pat, dv, extra)
							if err != nil {
								t.Fatal(err)
							}
							if desc.Nodes > 64 {
								continue
							}
							fac, err := routing.NewFactored(desc)
							if err != nil {
								t.Fatalf("%s: %v", desc.Name(), err)
							}
							net := desc.Graph()
							tbl, err := routing.BuildTable(net)
							if err != nil {
								t.Fatalf("%s: %v", net.Name(), err)
							}
							checkFactoredEquivalence(t, net, fac, tbl, routing.New(desc))
							configs++
						}
					}
				}
			}
		}
	}
	t.Logf("%d configurations", configs)
}

// TestFactoredRejectsIrregular: networks outside the power-of-two
// channels-per-wire regularity must be refused (the engine then uses
// the dense table, which handles them fine).
func TestFactoredRejectsIrregular(t *testing.T) {
	net, err := topology.NewBMINVC(2, 3, 3) // vcs = 3: not a power of two
	if err != nil {
		t.Fatal(err)
	}
	if _, err := routing.NewFactored(net); err == nil {
		t.Fatal("NewFactored accepted a 3-VC BMIN; want power-of-two rejection")
	}
	if _, ok := routing.FactoredFor(net, nil); ok {
		t.Fatal("FactoredFor accepted a 3-VC BMIN")
	}
}

// FuzzFactoredEquivalence extends the three-way property over
// randomized (k, stages, kind, wiring, dilation/VCs, extra) —
// the same space as FuzzTableEquivalence, k ∈ {2,4,8}.
func FuzzFactoredEquivalence(f *testing.F) {
	// Same encoding as FuzzTableEquivalence in table_test.go.
	f.Add(uint8(0), uint8(2), uint8(1), uint8(0), uint8(0), uint8(0)) // k=2 TMIN cube, 4 stages
	f.Add(uint8(2), uint8(0), uint8(2), uint8(1), uint8(1), uint8(0)) // k=8 DMIN(d=2) butterfly, 64 nodes
	f.Add(uint8(0), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0)) // k=2 BMIN, 3 stages
	f.Add(uint8(2), uint8(0), uint8(3), uint8(2), uint8(1), uint8(0)) // k=8 VMIN(m=2) omega
	f.Add(uint8(1), uint8(0), uint8(1), uint8(3), uint8(0), uint8(1)) // k=4 extra-stage TMIN baseline
	f.Fuzz(func(t *testing.T, kRaw, nRaw, kindRaw, patRaw, dvRaw, extraRaw uint8) {
		k := 2 << (kRaw % 3)       // 2, 4 or 8
		n := int(nRaw)%3 + 2       // 2..4 stages
		dv := int(dvRaw)%3 + 1     // dilation or VC count 1..3
		extra := int(extraRaw) % 2 // 0 or 1 extra stage
		pat := topology.Pattern(int(patRaw) % 4)
		size := 1
		for i := 0; i < n; i++ {
			size *= k
		}
		if size > 256 {
			t.Skip() // keep the exhaustive pair check cheap
		}
		kind := kindRaw % 4
		desc, err := fuzzNetwork(k, n, kind, pat, dv, extra)
		if err != nil {
			t.Skip()
		}
		fac, err := routing.NewFactored(desc)
		if err != nil {
			// The only irregularity this space can produce is a
			// non-power-of-two channels-per-wire count.
			if kind != 1 && dv == 3 {
				return
			}
			t.Fatalf("%s: %v", desc.Name(), err)
		}
		net := desc.Graph()
		tbl, err := routing.BuildTable(net)
		if err != nil {
			t.Fatalf("%s: %v", net.Name(), err)
		}
		checkFactoredEquivalence(t, net, fac, tbl, routing.New(desc))
	})
}
