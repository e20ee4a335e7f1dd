package traffic

import (
	"math"
	"runtime"
	"testing"

	"minsim/internal/kary"
)

// FuzzWorkloadRates: whatever load and cluster ratios come in,
// NewWorkload either refuses them or gives every node a finite,
// non-negative rate whose stream draws without a panic, each node's
// creation cycles non-negative and non-decreasing. A load so large that
// a per-node rate overflows is refused, and one so small that the next
// arrival lies past the last int64 cycle ends the node's stream.
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
		w, err := NewWorkload(Config{Clusters: cl, Pattern: Uniform{C: cl}, Lengths: PaperLengths, Load: load, Ratios: ratios, Seed: 5})
		if err != nil {
			return
		}
		for node := range w.state {
			if r := w.state[node].rate; !(r >= 0 && r <= math.MaxFloat64) {
				t.Fatalf("load %v ratios %v: node %d accepted at rate %v", load, ratios, node, r)
			}
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
// node), and a workload built on a recycled one allocates less than a
// kilobyte, rates included: nothing of it is a per-node table.
func TestSetupAllocationsDoNotGrowWithNodes(t *testing.T) {
	const nodes, few, runs, fewBytes = 16384, 8, 20, 1024
	c := Global(nodes)
	cfg := Config{Clusters: c, Pattern: Uniform{C: c}, Lengths: PaperLengths, Load: 0.3, Seed: 1}
	global := testing.AllocsPerRun(runs, func() { Global(nodes) })
	workload := testing.AllocsPerRun(runs, func() {
		if _, err := NewWorkload(cfg); err != nil {
			t.Fatal(err)
		}
	})
	point := func() {
		w, err := NewWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.Recycle()
	}
	point() // parks a spare the runs reuse
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		point()
	}
	runtime.ReadMemStats(&after)
	recycled := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("allocations at %d nodes: Global %v, NewWorkload %v; bytes of a recycled NewWorkload %d", nodes, global, workload, recycled)
	if global > few {
		t.Errorf("Global makes %v allocations at %d nodes, want at most %d", global, nodes, few)
	}
	if workload > few {
		t.Errorf("NewWorkload makes %v allocations at %d nodes, want at most %d", workload, nodes, few)
	}
	if recycled > fewBytes {
		t.Errorf("a recycled NewWorkload allocates %d bytes at %d nodes, want at most %d", recycled, nodes, fewBytes)
	}
}
