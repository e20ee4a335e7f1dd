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
// (permutation and sharing), and partitionDigest.
func analysesDigests(net *topology.Network) [3]digest {
	var paths, worst digest
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
	return [3]digest{paths, worst, partitionDigest(net)}
}

// partitionDigest digests partition.Analyze on the top-digit and the
// bottom-digit clusterings: verdicts, per-layer wire counts and
// sharing cluster pairs.
func partitionDigest(net *topology.Network) digest {
	var part digest
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
	return part
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
// still walked the struct graph through the Routers. Each row folds
// every network enumerate yields at one (k, n) — every family, wiring,
// extra-stage count and channel multiplicity, BMIN with virtual
// channels included — up to 16 nodes, and then each 64-node paper
// network alone.
//
// The 64-node corners of the enumeration (k=4 n=3, k=2 n=6 and k=8 n=2)
// pin partition verdicts only: their exhaustive path walks take
// minutes, and so did the partition analysis while it listed every
// route. Those rows were recorded with routing.Reach. The enumerating
// analysis finished only k=8 n=2, at the same digest, so the other two
// rest on FuzzReachMatchesAllPaths and on the rows above, which the
// enumeration recorded.
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
		{"k=4 n=3", 88, 0, 0, 0x76b700060cca61d0}, // partition only, from here on
		{"k=2 n=6", 88, 0, 0, 0xb87951f51863c090},
		{"k=8 n=2", 88, 0, 0, 0xe07a2c3b040a8eac},
	}
	var got []row
	for _, kn := range [][2]int{{2, 1}, {2, 2}, {2, 3}, {2, 4}, {4, 1}, {4, 2}, {8, 1}} {
		r := row{name: fmt.Sprintf("k=%d n=%d", kn[0], kn[1])}
		r.networks = enumerate(t, kn[0], kn[1], func(net *topology.Network) {
			d := analysesDigests(net)
			r.paths.add(int(d[0]))
			r.worst.add(int(d[1]))
			r.part.add(int(d[2]))
		})
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
	for _, kn := range [][2]int{{4, 3}, {2, 6}, {8, 2}} {
		r := row{name: fmt.Sprintf("k=%d n=%d", kn[0], kn[1])}
		r.networks = enumerate(t, kn[0], kn[1], func(net *topology.Network) {
			r.part.add(int(partitionDigest(net)))
		})
		got = append(got, r)
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

// FuzzReachMatchesAllPaths holds routing.Reach to enumeration: on a
// network of at most 64 nodes, the channels it reaches toward a
// destination from a set of sources are exactly those on some route
// AllPaths lists from one of them.
func FuzzReachMatchesAllPaths(f *testing.F) {
	// kRaw: 0/1/2 -> k = 2/4/8; nRaw: stages - 1; kind: 0 BMIN,
	// 1 TMIN, 2 DMIN, 3 VMIN; pat: Cube..Baseline; dvRaw: d or m - 1.
	// The seeds are the five paper networks; two reach from one source,
	// where no other source's routes cover a dropped alternative.
	f.Add(uint8(1), uint8(2), uint8(1), uint8(0), uint8(0), uint8(0), uint64(0x00ff00ff00ff00ff), uint8(5))  // tmin-cube
	f.Add(uint8(1), uint8(2), uint8(1), uint8(1), uint8(0), uint8(0), uint64(0xf0f0f0f0f0f0f0f0), uint8(63)) // tmin-butterfly
	f.Add(uint8(1), uint8(2), uint8(2), uint8(0), uint8(1), uint8(0), uint64(1<<9), uint8(0))                // dmin-cube
	f.Add(uint8(1), uint8(2), uint8(3), uint8(0), uint8(1), uint8(0), uint64(0x0123456789abcdef), uint8(17)) // vmin-cube
	f.Add(uint8(1), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), uint64(1), uint8(63))                  // bmin-butterfly
	f.Fuzz(func(t *testing.T, kRaw, nRaw, kindRaw, patRaw, dvRaw, extraRaw uint8, mask uint64, dstRaw uint8) {
		k := 2 << (kRaw % 3)
		n := int(nRaw)%6 + 1
		size := 1
		for i := 0; i < n; i++ {
			size *= k
		}
		if size > 64 {
			t.Skip()
		}
		net, err := fuzzNetwork(k, n, kindRaw%4, topology.Pattern(patRaw%4), int(dvRaw)%4+1, int(extraRaw)%3)
		if err != nil {
			t.Skip()
		}
		dst := int(dstRaw) % net.Nodes
		var srcs []int
		want := map[int]bool{}
		routes := 0
		for s := 0; s < net.Nodes; s++ {
			if mask>>s&1 == 0 {
				continue
			}
			srcs = append(srcs, s)
			if s == dst {
				continue
			}
			ps := routing.AllPaths(net, s, dst)
			if routes += len(ps); routes > 1<<14 {
				t.Skip() // keep the enumeration cheap: d^stages routes a pair on the widest DMINs
			}
			for _, p := range ps {
				for _, c := range p {
					want[c] = true
				}
			}
		}
		got := routing.Reach(net, dst, srcs)
		seen := map[int]bool{}
		for _, c := range got {
			if seen[c] {
				t.Fatalf("%s: channel %d reached twice", net.Name(), c)
			}
			seen[c] = true
			if !want[c] {
				t.Fatalf("%s: channel %d reached toward %d, on no route from %v", net.Name(), c, dst, srcs)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d channels reached toward %d, %d on routes from %v", net.Name(), len(got), dst, len(want), srcs)
		}
	})
}
