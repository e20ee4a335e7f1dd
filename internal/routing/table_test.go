package routing_test

// External test package: the equivalence property is checked over the
// paper's evaluation networks, whose specs live in
// internal/experiments (which itself imports routing — an internal
// test package here would cycle).

import (
	"testing"

	"minsim/internal/experiments"
	"minsim/internal/routing"
	"minsim/internal/topology"
)

// checkTableEquivalence asserts the property the engine's hot path
// relies on: for every (input channel, destination) pair the flat
// table returns exactly the Router's candidate list — same channels,
// same order (the order feeds the random pick, so it is part of the
// determinism contract) — and ejection channels have empty rows.
func checkTableEquivalence(t *testing.T, net *topology.Graph, tbl *routing.Table, r routing.Router) {
	t.Helper()
	var scratch []int
	for ci := range net.Channels {
		ch := &net.Channels[ci]
		for dest := 0; dest < net.Nodes; dest++ {
			got := tbl.Lookup(ci, dest)
			if ch.To.IsNode() {
				if len(got) != 0 {
					t.Fatalf("%s: ejection channel %d has %d candidates for dest %d, want none",
						net.Name(), ci, len(got), dest)
				}
				continue
			}
			scratch = r.Candidates(scratch[:0], net, ch, dest)
			if len(got) != len(scratch) {
				t.Fatalf("%s: channel %d dest %d: table has %v, router %v",
					net.Name(), ci, dest, got, scratch)
			}
			for i := range scratch {
				if int(got[i]) != scratch[i] {
					t.Fatalf("%s: channel %d dest %d: table has %v, router %v",
						net.Name(), ci, dest, got, scratch)
				}
			}
		}
	}
}

// TestTableMatchesRouterPaperConfigs proves table lookup ≡
// Router.Candidates pairwise-exhaustively on the paper's five 64-node
// evaluation configurations (all four network families).
func TestTableMatchesRouterPaperConfigs(t *testing.T) {
	for _, ns := range experiments.PaperSpecs() {
		desc, err := ns.Spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		net := desc.Graph()
		tbl, err := routing.BuildTable(net)
		if err != nil {
			t.Fatalf("%s: %v", ns.Name, err)
		}
		checkTableEquivalence(t, net, tbl, routing.New(desc))
		t.Logf("%s: route table %d bytes", ns.Name, tbl.Bytes())
	}
}

// TestTableFromRouterMatchesWrappedRouter checks the generic snapshot
// path the engine takes for non-default routers, using the
// fault-aware wrapper as the representative custom Router.
func TestTableFromRouterMatchesWrappedRouter(t *testing.T) {
	desc, err := topology.NewBMIN(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	net := desc.Graph()
	failed := map[int]bool{}
	for i := range net.Channels {
		ch := &net.Channels[i]
		if ch.Layer == 2 && ch.Dir == topology.Backward {
			failed[i] = true
			break
		}
	}
	aware := routing.FaultAware{Inner: routing.New(desc), Failed: failed}
	checkTableEquivalence(t, net, routing.NewTableFromRouter(net, aware), aware)
}

// TestTableForSelectsFamilyBuilder pins TableFor's dispatch: nil and
// the family's own router get the verified per-family table, a
// foreign router gets the generic snapshot — both equivalent.
func TestTableForSelectsFamilyBuilder(t *testing.T) {
	desc, err := topology.NewUnidirectional(topology.UniConfig{
		K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 2, VCs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := desc.Graph()
	for _, r := range []routing.Router{nil, routing.DestinationTag{}} {
		tbl, err := routing.TableFor(net, r)
		if err != nil {
			t.Fatal(err)
		}
		checkTableEquivalence(t, net, tbl, routing.New(desc))
	}
}

// FuzzTableEquivalence extends the property beyond the paper's 4x4
// configurations: arbitrary radices (the seeds cover k = 2 and k = 8),
// stage counts, wirings, dilations, virtual channels and extra
// stages.
func FuzzTableEquivalence(f *testing.F) {
	// kRaw: 0/1/2 -> k = 2/4/8; nRaw: stages - 2; kind: 0 BMIN,
	// 1 TMIN, 2 DMIN, 3 VMIN; pat: Cube..Baseline; dvRaw: d or m - 1.
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
		desc, err := fuzzNetwork(k, n, kindRaw%4, pat, dv, extra)
		if err != nil {
			t.Skip()
		}
		net := desc.Graph()
		tbl, err := routing.BuildTable(net)
		if err != nil {
			t.Fatalf("%s: %v", net.Name(), err)
		}
		checkTableEquivalence(t, net, tbl, routing.New(desc))
	})
}

// fuzzNetwork decodes the network both equivalence fuzzers draw: kind 0
// is a BMIN with dv virtual channels, 1 a TMIN, 2 a DMIN with dilation
// dv, 3 a VMIN with dv virtual channels.
func fuzzNetwork(k, n int, kind uint8, pat topology.Pattern, dv, extra int) (*topology.Network, error) {
	cfg := topology.UniConfig{K: k, Stages: n, Pattern: pat, Dilation: 1, VCs: 1, Extra: extra}
	switch kind {
	case 0:
		return topology.NewBMINVC(k, n, dv)
	case 2:
		cfg.Dilation = dv
	case 3:
		cfg.VCs = dv
	}
	return topology.NewUnidirectional(cfg)
}
