package partition

import (
	"testing"

	"minsim/internal/kary"
	"minsim/internal/topology"
)

var r64 = kary.MustNew(4, 3)

// MustCube is NewCube but panics on error.
func MustCube(r kary.Radix, msdFirst ...int) Cube {
	c, err := NewCube(r, msdFirst...)
	if err != nil {
		panic(err)
	}
	return c
}

// Disjoint reports whether two cubes share no node (Definition 5's
// disjointness: different fixed variables and neither a subset).
func Disjoint(a, b Cube) bool {
	for i := range a.Pattern {
		if a.Pattern[i] != Free && b.Pattern[i] != Free && a.Pattern[i] != b.Pattern[i] {
			return true
		}
	}
	return false
}

func TestCubeBasics(t *testing.T) {
	r := kary.MustNew(4, 4)
	// The paper's examples: cluster (21**) is a base four-ary
	// two-cube of 16 nodes 2100..2133; (3*1*) is a (non-base) cube.
	c := MustCube(r, 2, 1, Free, Free)
	if c.M() != 2 || c.Size() != 16 {
		t.Fatalf("21**: m=%d size=%d", c.M(), c.Size())
	}
	if !c.IsBase() {
		t.Error("21** should be a base cube")
	}
	nodes := c.Nodes()
	if len(nodes) != 16 {
		t.Fatalf("%d nodes", len(nodes))
	}
	lo := r.FromDigits([]int{0, 0, 1, 2}) // 2100
	hi := r.FromDigits([]int{3, 3, 1, 2}) // 2133
	if nodes[0] != lo || nodes[15] != hi {
		t.Errorf("range [%s, %s], want [2100, 2133]", r.Format(nodes[0]), r.Format(nodes[15]))
	}
	d := MustCube(r, 3, Free, 1, Free)
	if d.IsBase() {
		t.Error("3*1* should not be a base cube")
	}
	if d.Size() != 16 {
		t.Errorf("3*1* size %d", d.Size())
	}
	if !Disjoint(c, d) {
		t.Error("21** and 3*1* should be disjoint")
	}
	if got := c.String(); got != "21**" {
		t.Errorf("String = %q", got)
	}
}

func TestCubeErrors(t *testing.T) {
	r := kary.MustNew(4, 3)
	if _, err := NewCube(r, 1, 2); err == nil {
		t.Error("short pattern accepted")
	}
	if _, err := NewCube(r, 4, Free, Free); err == nil {
		t.Error("digit out of range accepted")
	}
}

func TestDisjointness(t *testing.T) {
	a := MustCube(r64, 0, Free, Free)
	b := MustCube(r64, 1, Free, Free)
	sub := MustCube(r64, 0, 1, Free)
	if !Disjoint(a, b) {
		t.Error("0** and 1** should be disjoint")
	}
	if Disjoint(a, sub) {
		t.Error("0** contains 01*; not disjoint")
	}
	overlapping := MustCube(r64, Free, 2, Free)
	if Disjoint(a, overlapping) {
		t.Error("0** and *2* overlap at 02x")
	}
}

func TestBinaryCube(t *testing.T) {
	bc, err := NewBinaryCube(8, "0**")
	if err != nil {
		t.Fatal(err)
	}
	nodes := bc.Nodes()
	if len(nodes) != 4 || nodes[0] != 0 || nodes[3] != 3 {
		t.Fatalf("0** over 8 nodes = %v", nodes)
	}
	bc2, _ := NewBinaryCube(8, "1*0")
	want := []int{4, 6}
	got := bc2.Nodes()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("1*0 = %v, want %v", got, want)
	}
	if _, err := NewBinaryCube(6, "***"); err == nil {
		t.Error("non-power-of-two size accepted")
	}
	if _, err := NewBinaryCube(8, "**"); err == nil {
		t.Error("short pattern accepted")
	}
	if _, err := NewBinaryCube(8, "01a"); err == nil {
		t.Error("bad char accepted")
	}
}

func mustUni(t *testing.T, k, n int, pat topology.Pattern) *topology.Network {
	t.Helper()
	net, err := topology.NewUnidirectional(topology.UniConfig{K: k, Stages: n, Pattern: pat, Dilation: 1, VCs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestTheorem2CubeMIN verifies Lemma 1 / Theorem 2: the cube MIN
// partitions into contention-free, channel-balanced clusters — both
// the k-ary cube clustering of the 64-node network and the paper's
// Fig. 14 binary-cube example (8-node, 2x2 switches, clusters 0XX,
// 1X0, 1X1).
func TestTheorem2CubeMIN(t *testing.T) {
	// 64-node cube MIN, clusters 0**, 1**, 2**, 3**.
	net := mustUni(t, 4, 3, topology.Cube)
	var clusters [][]int
	for v := 0; v < 4; v++ {
		clusters = append(clusters, MustCube(r64, v, Free, Free).Nodes())
	}
	rep := Analyze(net, clusters)
	if !rep.ContentionFree() {
		t.Errorf("cube MIN k-ary clustering not contention free: shared pairs %v", rep.SharedPairs)
	}
	for i, cr := range rep.Clusters {
		if !cr.Verdict.Balanced {
			t.Errorf("cluster %d not channel balanced: %v", i, cr.Usage.ByLayer)
		}
	}

	// Fig. 14: 8-node cube MIN with 2x2 switches, binary clusters.
	net8 := mustUni(t, 2, 3, topology.Cube)
	var bins [][]int
	for _, pat := range []string{"0**", "1*0", "1*1"} {
		bc, err := NewBinaryCube(8, pat)
		if err != nil {
			t.Fatal(err)
		}
		bins = append(bins, bc.Nodes())
	}
	rep8 := Analyze(net8, bins)
	if !rep8.ContentionFree() {
		t.Errorf("Fig. 14 clustering not contention free: %v", rep8.SharedPairs)
	}
	for i, cr := range rep8.Clusters {
		if !cr.Verdict.Balanced {
			t.Errorf("Fig. 14 cluster %d not balanced: %v", i, cr.Usage.ByLayer)
		}
	}
}

// TestTheorem2BinaryCubesIn4ary: with k = 4 = 2^2, the cube MIN also
// partitions contention-free on *binary* cubes that are not k-ary
// cubes, e.g. the two 32-node halves (cluster-32).
func TestTheorem2BinaryCubesIn4ary(t *testing.T) {
	net := mustUni(t, 4, 3, topology.Cube)
	lo, _ := NewBinaryCube(64, "0*****")
	hi, _ := NewBinaryCube(64, "1*****")
	rep := Analyze(net, [][]int{lo.Nodes(), hi.Nodes()})
	if !rep.ContentionFree() {
		t.Errorf("cluster-32 on cube MIN not contention free: %v", rep.SharedPairs)
	}
	for i, cr := range rep.Clusters {
		if !cr.Verdict.Balanced {
			t.Errorf("cluster-32 half %d not balanced: %v", i, cr.Usage.ByLayer)
		}
	}
}

// TestTheorem3ButterflyMIN verifies the butterfly MIN's failure modes
// (Fig. 15): top-digit clusters are channel-reduced; bottom-digit
// clusters are channel-shared.
func TestTheorem3ButterflyMIN(t *testing.T) {
	// Fig. 15a: 8-node butterfly, clusters 0XX, 10X, 11X — contention
	// free but channel reduced.
	net8 := mustUni(t, 2, 3, topology.Butterfly)
	var bins [][]int
	for _, pat := range []string{"0**", "10*", "11*"} {
		bc, _ := NewBinaryCube(8, pat)
		bins = append(bins, bc.Nodes())
	}
	rep := Analyze(net8, bins)
	if !rep.ContentionFree() {
		t.Errorf("Fig. 15a clustering should be contention free: %v", rep.SharedPairs)
	}
	reduced := 0
	for _, cr := range rep.Clusters {
		if cr.Verdict.Reduced {
			reduced++
		}
	}
	if reduced != len(rep.Clusters) {
		t.Errorf("Fig. 15a: %d of %d clusters channel-reduced, want all", reduced, len(rep.Clusters))
	}

	// Fig. 15b: clusters XX0 and XX1 share channels.
	var shared [][]int
	for _, pat := range []string{"**0", "**1"} {
		bc, _ := NewBinaryCube(8, pat)
		shared = append(shared, bc.Nodes())
	}
	rep2 := Analyze(net8, shared)
	if rep2.ContentionFree() {
		t.Error("Fig. 15b clustering should share channels")
	}

	// 64-node butterfly MIN, top-digit clusters: channel reduced.
	net := mustUni(t, 4, 3, topology.Butterfly)
	var clusters [][]int
	for v := 0; v < 4; v++ {
		clusters = append(clusters, MustCube(r64, v, Free, Free).Nodes())
	}
	rep3 := Analyze(net, clusters)
	for i, cr := range rep3.Clusters {
		if !cr.Verdict.Reduced {
			t.Errorf("64-node butterfly top-digit cluster %d not channel-reduced: %v", i, cr.Usage.ByLayer)
		}
	}

	// Bottom-digit clusters: channel shared.
	var sh [][]int
	for v := 0; v < 4; v++ {
		sh = append(sh, MustCube(r64, Free, Free, v).Nodes())
	}
	rep4 := Analyze(net, sh)
	if rep4.ContentionFree() {
		t.Error("64-node butterfly bottom-digit clustering should share channels")
	}
}

// TestTheorem4BMIN: a butterfly BMIN partitions into contention-free,
// channel-balanced base k-ary cubes.
func TestTheorem4BMIN(t *testing.T) {
	net, err := topology.NewBMIN(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	var clusters [][]int
	for v := 0; v < 4; v++ {
		clusters = append(clusters, MustCube(r64, v, Free, Free).Nodes())
	}
	rep := Analyze(net, clusters)
	if !rep.ContentionFree() {
		t.Errorf("BMIN base-cube clustering not contention free: %v", rep.SharedPairs)
	}
	for i, cr := range rep.Clusters {
		if !cr.Verdict.Balanced {
			t.Errorf("BMIN base cube %d not balanced: %v", i, cr.Usage.ByLayer)
		}
	}
	// A non-base cube clustering, by contrast, shares channels: fix
	// the least significant digit.
	var nb [][]int
	for v := 0; v < 4; v++ {
		nb = append(nb, MustCube(r64, Free, Free, v).Nodes())
	}
	rep2 := Analyze(net, nb)
	if rep2.ContentionFree() {
		t.Error("BMIN non-base clustering should share channels")
	}
}

// TestOmegaEqualsCubePartitionability spot-checks the paper's closing
// remark that the Omega network (σ at every connection layer) has the
// same partitionability as the cube network — we verify the cube-MIN
// clustering property again with the Omega-equivalent routing by
// checking that the cube MIN's contention freedom is preserved under
// relabeling of cluster digit positions (any fixed digit works, not
// just the top one).
func TestOmegaEqualsCubePartitionability(t *testing.T) {
	net := mustUni(t, 4, 3, topology.Cube)
	// Fix the middle digit: *v* clusters; Lemma 1 says any k-ary cube
	// works on a cube MIN, not just base cubes.
	var clusters [][]int
	for v := 0; v < 4; v++ {
		clusters = append(clusters, MustCube(r64, Free, v, Free).Nodes())
	}
	rep := Analyze(net, clusters)
	if !rep.ContentionFree() {
		t.Errorf("cube MIN middle-digit clustering not contention free: %v", rep.SharedPairs)
	}
	for i, cr := range rep.Clusters {
		if !cr.Verdict.Balanced {
			t.Errorf("middle-digit cluster %d not balanced: %v", i, cr.Usage.ByLayer)
		}
	}
}

func TestClusterUsageLayerCounts(t *testing.T) {
	// Full-network "cluster" on the 64-node cube TMIN uses all 64
	// wires in every layer.
	net := mustUni(t, 4, 3, topology.Cube)
	all := make([]int, 64)
	for i := range all {
		all[i] = i
	}
	u := ClusterUsage(net, all)
	for layer := 0; layer <= 3; layer++ {
		if u.ByLayer[layer] != 64 {
			t.Errorf("layer %d uses %d wires, want 64", layer, u.ByLayer[layer])
		}
	}
}
