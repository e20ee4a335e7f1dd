package routing_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"minsim/internal/experiments"
	"minsim/internal/kary"
	"minsim/internal/partition"
	"minsim/internal/routing"
	"minsim/internal/topology"
)

// digest folds int sequences into one FNV-1a-based value; the order of
// the sequences and of the ints within each is part of what it pins.
type digest uint64

func (d *digest) add(xs ...int) {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		for i := range b {
			b[i] = byte(uint64(x) >> (8 * i))
		}
		h.Write(b[:])
	}
	*d = *d*1099511628211 ^ digest(h.Sum64())
}

// analysesDigests walks every analysis the routing function backs and
// digests its output: AllPaths over every ordered pair (count, then
// each path's channels in order), WorstPermutation at seeds 1-3
// (permutation and sharing), and partition.Analyze on the top-digit
// and the bottom-digit clusterings (verdicts, per-layer wire counts
// and sharing cluster pairs).
func analysesDigests(net *topology.Network) [3]digest {
	var paths, worst, part digest
	for s := 0; s < net.Nodes; s++ {
		for d := 0; d < net.Nodes; d++ {
			if s == d {
				continue
			}
			ps := routing.AllPaths(net, s, d)
			paths.add(s, d, len(ps))
			for _, p := range ps {
				paths.add(p...)
			}
		}
	}
	for _, seed := range []uint64{1, 2, 3} {
		perm, sh := routing.WorstPermutation(net, seed, 300)
		worst.add(perm...)
		worst.add(sh.MaxShare, sh.SharedChannels, sh.ActivePairs)
	}
	for _, clusters := range digitClusterings(net.R) {
		rep := partition.Analyze(net, clusters)
		for _, c := range rep.Clusters {
			v := c.Verdict
			part.add(b2i(v.Balanced), b2i(v.Reduced), b2i(v.Shared))
			for l := 0; l <= net.Stages; l++ {
				part.add(l, c.Usage.ByLayer[l])
			}
		}
		for _, sp := range rep.SharedPairs {
			part.add(sp[0], sp[1])
		}
	}
	return [3]digest{paths, worst, part}
}

// digitClusterings returns the k clusters fixing the top address digit
// (the base cubes of Theorems 2 and 4) and the k fixing the bottom one
// (Theorem 3's channel-shared butterfly case).
func digitClusterings(r kary.Radix) [][][]int {
	var out [][][]int
	for _, pos := range []int{r.N() - 1, 0} {
		clusters := make([][]int, r.K())
		for x := 0; x < r.Size(); x++ {
			clusters[r.Digit(x, pos)] = append(clusters[r.Digit(x, pos)], x)
		}
		out = append(out, clusters)
	}
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestAnalysesPinned holds the analyses to literals recorded while they
// still walked the struct graph through the Routers. Each row folds,
// in TestFactoredMatchesRouters' order, every network that test
// enumerates at one (k, n) — every family, wiring, extra-stage count
// and channel multiplicity, BMIN with virtual channels included — up to
// 16 nodes, and then each 64-node paper network alone. (The 64-node
// corners of that enumeration are left to the equivalence test: their
// exhaustive path walks take minutes.)
func TestAnalysesPinned(t *testing.T) {
	type row struct {
		name               string
		networks           int
		paths, worst, part digest
	}
	pinned := []row{
		{"k=2 n=1", 88, 0xbbf5cecdda7728e8, 0xfc927b1819c750fc, 0x81ee02a221887a58},
		{"k=2 n=2", 88, 0x5283ddc0f7cfc2c5, 0xb20de50dbe919628, 0x987f7e1e027c24b8},
		{"k=2 n=3", 88, 0x015383b7e3904169, 0x7ebb7996068cb00c, 0xf73b3edab13bc5eb},
		{"k=2 n=4", 88, 0xea9c4236de56f49a, 0x8e4300db434b50a3, 0x0de4ab1f48d55644},
		{"k=4 n=1", 88, 0x63b3d9f81ab05e80, 0x3be14b1c1c77f928, 0x258b076aedc87a60},
		{"k=4 n=2", 88, 0x67652a935e923f93, 0xfeb77f5264bfb6c8, 0xea0b2ee86d825a0c},
		{"k=8 n=1", 88, 0xc62422ac7f1b739c, 0xcba05ab01d684514, 0x892793c2213f4dd8},
		{"tmin-cube", 1, 0x3a24254b0a88d120, 0x10b7631d063e438a, 0xc77d8caba7d35180},
		{"tmin-butterfly", 1, 0x903936c308a09600, 0x2203debfc32a7db9, 0x12b4312f19c14d8e},
		{"dmin-cube", 1, 0xb40d1ce1a1599eb0, 0x10b7631d063e438a, 0xc77d8caba7d35180},
		{"vmin-cube", 1, 0xb40d1ce1a1599eb0, 0x10b7631d063e438a, 0xc77d8caba7d35180},
		{"bmin-butterfly", 1, 0x68d9756029ff5980, 0x9a7f28438f195a76, 0x88dcfd911c9232ae},
	}
	var got []row
	for _, kn := range [][2]int{{2, 1}, {2, 2}, {2, 3}, {2, 4}, {4, 1}, {4, 2}, {8, 1}} {
		r := row{name: fmt.Sprintf("k=%d n=%d", kn[0], kn[1])}
		for kind := uint8(0); kind < 4; kind++ {
			for _, pat := range []topology.Pattern{topology.Cube, topology.Butterfly, topology.Omega, topology.Baseline} {
				for _, dv := range []int{1, 2, 3, 4} {
					for extra := 0; extra <= 2; extra++ {
						if kind == 0 && (pat != topology.Cube || extra != 0) || kind == 1 && dv != 1 || kind > 1 && dv == 1 {
							continue // as in TestFactoredMatchesRouters
						}
						net, err := fuzzNetwork(kn[0], kn[1], kind, pat, dv, extra)
						if err != nil {
							t.Fatal(err)
						}
						d := analysesDigests(net)
						r.paths.add(int(d[0]))
						r.worst.add(int(d[1]))
						r.part.add(int(d[2]))
						r.networks++
					}
				}
			}
		}
		got = append(got, r)
	}
	for _, ns := range experiments.PaperSpecs() {
		net, err := ns.Spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		d := analysesDigests(net)
		got = append(got, row{ns.Name, 1, d[0], d[1], d[2]})
	}
	if len(got) != len(pinned) {
		t.Fatalf("%d rows, %d pinned", len(got), len(pinned))
	}
	for i, g := range got {
		if g != pinned[i] {
			t.Errorf("got  %s: %d networks, paths %#016x worst %#016x partition %#016x\nwant %+v",
				g.name, g.networks, uint64(g.paths), uint64(g.worst), uint64(g.part), pinned[i])
		}
	}
}
