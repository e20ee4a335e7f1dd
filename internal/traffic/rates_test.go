package traffic

import (
	"testing"

	"minsim/internal/kary"
)

// FuzzWorkloadRates: whatever load and cluster ratios come in, NodeRates
// either refuses them or hands back rates that NewWorkload accepts and
// whose streams draw without a panic, each node's creation cycles
// non-negative and non-decreasing. A load so large that a per-node rate
// overflows is refused, and one so small that the next arrival lies past
// the last int64 cycle ends the node's stream.
func FuzzWorkloadRates(f *testing.F) {
	for _, load := range []float64{1e308, 1e-300, 0.3} {
		for sel := range uint8(4) {
			f.Add(load, 4.0, 1.0, 1.0, 1.0, sel)
		}
	}
	r16 := kary.MustNew(4, 2)
	f.Fuzz(func(t *testing.T, load, a, b, c, d float64, sel uint8) {
		var cl Clustering
		switch sel % 4 {
		case 0:
			cl = Global(16)
		case 1:
			cl = Global(64)
		case 2:
			cl = ByDigit(r16, 1)
		default:
			cl = ByDigit(r64, 0)
		}
		ratios := []float64{a, b, c, d}[:len(cl.Members)]
		if sel&4 != 0 {
			ratios = nil
		}
		rates, err := NodeRates(cl, load, PaperLengths.Mean(), ratios)
		if err != nil {
			return
		}
		nodes := len(cl.Of)
		w, err := NewWorkload(Config{Nodes: nodes, Pattern: Uniform{C: cl}, Lengths: PaperLengths, Rates: rates, Seed: 5})
		if err != nil {
			t.Fatalf("load %v ratios %v: NodeRates gave %v, NewWorkload refused it: %v", load, ratios, rates, err)
		}
		for node := range nodes {
			prev := int64(0)
			for range 4 {
				m, ok := w.Next(node)
				if !ok {
					break
				}
				if m.Created < prev {
					t.Fatalf("load %v: node %d created at %d after %d", load, node, m.Created, prev)
				}
				prev = m.Created
			}
		}
	})
}

// TestSetupAllocationsDoNotGrowWithNodes: a 16K-node clustering and
// workload each cost a handful of allocations, not one per node (a
// stream apiece) or one per append doubling (member lists grown node by
// node).
func TestSetupAllocationsDoNotGrowWithNodes(t *testing.T) {
	const nodes, few = 16384, 8
	c := Global(nodes)
	rates, err := NodeRates(c, 0.3, PaperLengths.Mean(), nil)
	if err != nil {
		t.Fatal(err)
	}
	global := testing.AllocsPerRun(20, func() { Global(nodes) })
	workload := testing.AllocsPerRun(20, func() {
		if _, err := NewWorkload(Config{Nodes: nodes, Pattern: Uniform{C: c}, Lengths: PaperLengths, Rates: rates, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations at %d nodes: Global %v, NewWorkload %v", nodes, global, workload)
	if global > few {
		t.Errorf("Global makes %v allocations at %d nodes, want at most %d", global, nodes, few)
	}
	if workload > few {
		t.Errorf("NewWorkload makes %v allocations at %d nodes, want at most %d", workload, nodes, few)
	}
}
