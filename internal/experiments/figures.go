package experiments

import (
	"iter"
	"slices"
	"sync"

	"minsim/internal/engine"
	"minsim/internal/traffic"
)

// The load grids' bounds are constants LoadRange accepts
// (TestLoadRangesSane), so its error is dropped.
//
// uniformLoads sweeps to the ejection-capacity region where the
// uniform-traffic networks saturate.
var uniformLoads, _ = LoadRange(0.05, 0.95, 10)

// hotspotLoads stops earlier: hot-spot traffic saturates well below
// uniform capacity.
var hotspotLoads, _ = LoadRange(0.05, 0.85, 9)

// permutationLoads sweeps the permutation workloads, whose saturation
// differs strongly across networks.
var permutationLoads, _ = LoadRange(0.05, 0.95, 10)

func uniformWork(c ClusterSpec) WorkloadSpec {
	return WorkloadSpec{Cluster: c, Pattern: PatternSpec{Kind: Uniform}}
}

// fourNetworks is the Fig. 18-20 line-up: TMIN, DMIN, VMIN (all cube
// wiring, per Section 5.2's conclusion) and the butterfly BMIN.
func fourNetworks(w WorkloadSpec) []Curve {
	return []Curve{
		{Label: "TMIN", Net: TMINCube, Work: w},
		{Label: "DMIN(d=2)", Net: DMINCube, Work: w},
		{Label: "VMIN(vc=2)", Net: VMINCube, Work: w},
		{Label: "BMIN", Net: BMINButterfly, Work: w},
	}
}

// Figures returns the ten experiments reproducing Figs. 16-20.
func Figures() []Experiment {
	return []Experiment{
		{
			ID:     "fig16a",
			Title:  "Cube vs butterfly TMIN, global uniform traffic (Fig. 16a)",
			Expect: "no difference between cube and butterfly wiring",
			Loads:  uniformLoads,
			Curves: []Curve{
				{Label: "cube TMIN", Net: TMINCube, Work: uniformWork(Global)},
				{Label: "butterfly TMIN", Net: TMINButterfly, Work: uniformWork(Global)},
			},
		},
		{
			ID:     "fig16b",
			Title:  "Cube vs butterfly TMIN, cluster-16 uniform traffic (Fig. 16b)",
			Expect: "cube (channel-balanced) best; butterfly channel-reduced worst",
			Loads:  uniformLoads,
			Curves: []Curve{
				{Label: "cube TMIN (balanced)", Net: TMINCube, Work: uniformWork(Cluster16)},
				{Label: "butterfly TMIN (reduced)", Net: TMINButterfly, Work: uniformWork(Cluster16)},
				{Label: "butterfly TMIN (shared)", Net: TMINButterfly, Work: uniformWork(Cluster16Shared)},
			},
		},
		{
			ID:     "fig17a",
			Title:  "Cube vs butterfly TMIN, four 16-node clusters, load ratio 4:1:1:1 (Fig. 17a)",
			Expect: "butterfly channel-shared best; butterfly channel-reduced worst",
			Loads:  uniformLoads,
			Curves: []Curve{
				{Label: "cube TMIN (balanced)", Net: TMINCube,
					Work: WorkloadSpec{Cluster: Cluster16, Pattern: PatternSpec{Kind: Uniform}, Ratios: []float64{4, 1, 1, 1}}},
				{Label: "butterfly TMIN (reduced)", Net: TMINButterfly,
					Work: WorkloadSpec{Cluster: Cluster16, Pattern: PatternSpec{Kind: Uniform}, Ratios: []float64{4, 1, 1, 1}}},
				{Label: "butterfly TMIN (shared)", Net: TMINButterfly,
					Work: WorkloadSpec{Cluster: Cluster16Shared, Pattern: PatternSpec{Kind: Uniform}, Ratios: []float64{4, 1, 1, 1}}},
			},
		},
		{
			ID:     "fig17b",
			Title:  "Cube (balanced) vs butterfly (shared), ratios 1:0:0:0 and 4:1:1:1 (Fig. 17b)",
			Expect: "butterfly channel-shared beats cube for both ratios; 1:0:0:0 saturates lower",
			Loads:  uniformLoads,
			Curves: []Curve{
				{Label: "cube 1:0:0:0", Net: TMINCube,
					Work: WorkloadSpec{Cluster: Cluster16, Pattern: PatternSpec{Kind: Uniform}, Ratios: []float64{1, 0, 0, 0}}},
				{Label: "butterfly shared 1:0:0:0", Net: TMINButterfly,
					Work: WorkloadSpec{Cluster: Cluster16Shared, Pattern: PatternSpec{Kind: Uniform}, Ratios: []float64{1, 0, 0, 0}}},
				{Label: "cube 4:1:1:1", Net: TMINCube,
					Work: WorkloadSpec{Cluster: Cluster16, Pattern: PatternSpec{Kind: Uniform}, Ratios: []float64{4, 1, 1, 1}}},
				{Label: "butterfly shared 4:1:1:1", Net: TMINButterfly,
					Work: WorkloadSpec{Cluster: Cluster16Shared, Pattern: PatternSpec{Kind: Uniform}, Ratios: []float64{4, 1, 1, 1}}},
			},
		},
		{
			ID:     "fig18a",
			Title:  "Four networks, global uniform traffic (Fig. 18a)",
			Expect: "DMIN best, then VMIN slightly above BMIN, TMIN worst",
			Loads:  uniformLoads,
			Curves: fourNetworks(uniformWork(Global)),
		},
		{
			ID:     "fig18b",
			Title:  "Four networks, cluster-16 uniform traffic (Fig. 18b)",
			Expect: "same ordering as 18a",
			Loads:  uniformLoads,
			Curves: fourNetworks(uniformWork(Cluster16)),
		},
		{
			ID:     "fig19a",
			Title:  "Four networks, global hot spot 5% (Fig. 19a)",
			Expect: "all depressed vs 18a; DMIN still best (~70%); TMIN worst, BMIN close to TMIN",
			Loads:  hotspotLoads,
			Curves: fourNetworks(WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: HotSpot, HotX: 0.05}}),
		},
		{
			ID:     "fig19b",
			Title:  "Four networks, global hot spot 10% (Fig. 19b)",
			Expect: "further depressed; DMIN ~45%",
			Loads:  hotspotLoads,
			Curves: fourNetworks(WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: HotSpot, HotX: 0.10}}),
		},
		{
			ID:     "fig20a",
			Title:  "Four networks, perfect shuffle permutation (Fig. 20a)",
			Expect: "DMIN and BMIN far ahead; BMIN best at heavy load; VMIN below TMIN",
			Loads:  permutationLoads,
			Curves: fourNetworks(WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: ShufflePerm}}),
		},
		{
			ID:     "fig20b",
			Title:  "Four networks, 2nd butterfly permutation (Fig. 20b)",
			Expect: "same shape as 20a",
			Loads:  permutationLoads,
			Curves: fourNetworks(WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: ButterflyPerm, Butterfly: 2}}),
		},
	}
}

// Extensions returns the additional experiments the paper mentions in
// Sections 5.2/5.3 and Future Work: cluster-32 workloads, DMIN/VMIN
// cube-vs-butterfly comparisons, message-size ablations, deeper VMINs
// and higher dilations.
func Extensions() []Experiment {
	short := WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: Uniform}, Lengths: &shortLengths}
	long := WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: Uniform}, Lengths: &longLengths}
	bimodal := WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: Uniform}, Lengths: &bimodalLengths}
	return []Experiment{
		{
			ID:     "ext-cluster32",
			Title:  "Four networks, cluster-32 uniform traffic (Section 5.3.1)",
			Expect: "same relative ordering as cluster-16",
			Loads:  uniformLoads,
			Curves: fourNetworks(uniformWork(Cluster32)),
		},
		{
			ID:     "ext-dmin-wiring",
			Title:  "Cube vs butterfly wiring for DMINs under cluster-16 (Section 5.2)",
			Expect: "cube wiring also better for DMINs",
			Loads:  uniformLoads,
			Curves: []Curve{
				{Label: "cube DMIN", Net: DMINCube, Work: uniformWork(Cluster16)},
				{Label: "butterfly DMIN", Net: NetworkSpec{Kind: DMINCube.Kind, Pattern: 1, K: 4, Stages: 3, Dilation: 2}, Work: uniformWork(Cluster16)},
			},
		},
		{
			ID:     "ext-vmin-wiring",
			Title:  "Cube vs butterfly wiring for VMINs under cluster-16 (Section 5.2)",
			Expect: "cube wiring also better for VMINs",
			Loads:  uniformLoads,
			Curves: []Curve{
				{Label: "cube VMIN", Net: VMINCube, Work: uniformWork(Cluster16)},
				{Label: "butterfly VMIN", Net: NetworkSpec{Kind: VMINCube.Kind, Pattern: 1, K: 4, Stages: 3, VCs: 2}, Work: uniformWork(Cluster16)},
			},
		},
		{
			ID:     "ext-msglen-short",
			Title:  "Four networks, short messages 8-64 flits (Future Work)",
			Expect: "lower absolute latency, same ordering",
			Loads:  uniformLoads,
			Curves: fourNetworks(short),
		},
		{
			ID:     "ext-msglen-long",
			Title:  "Four networks, long messages 512-1024 flits (Future Work)",
			Expect: "higher absolute latency, same ordering",
			Loads:  uniformLoads,
			Curves: fourNetworks(long),
		},
		{
			ID:     "ext-msglen-bimodal",
			Title:  "Four networks, bimodal messages (Future Work)",
			Expect: "between short and long",
			Loads:  uniformLoads,
			Curves: fourNetworks(bimodal),
		},
		{
			ID:     "ext-vmin-depth",
			Title:  "VMINs with 2, 4 and 8 virtual channels, global uniform (Future Work)",
			Expect: "more VCs reduce blocking up to bandwidth limit",
			Loads:  uniformLoads,
			Curves: []Curve{
				{Label: "VMIN vc=2", Net: NetworkSpec{Kind: VMINCube.Kind, K: 4, Stages: 3, VCs: 2}, Work: uniformWork(Global)},
				{Label: "VMIN vc=4", Net: NetworkSpec{Kind: VMINCube.Kind, K: 4, Stages: 3, VCs: 4}, Work: uniformWork(Global)},
				{Label: "VMIN vc=8", Net: NetworkSpec{Kind: VMINCube.Kind, K: 4, Stages: 3, VCs: 8}, Work: uniformWork(Global)},
			},
		},
		{
			ID:     "ext-dilation",
			Title:  "DMINs with dilation 2, 3 and 4, global uniform (Future Work)",
			Expect: "diminishing returns past d=2 under one-port injection",
			Loads:  uniformLoads,
			Curves: []Curve{
				{Label: "DMIN d=2", Net: NetworkSpec{Kind: DMINCube.Kind, K: 4, Stages: 3, Dilation: 2}, Work: uniformWork(Global)},
				{Label: "DMIN d=3", Net: NetworkSpec{Kind: DMINCube.Kind, K: 4, Stages: 3, Dilation: 3}, Work: uniformWork(Global)},
				{Label: "DMIN d=4", Net: NetworkSpec{Kind: DMINCube.Kind, K: 4, Stages: 3, Dilation: 4}, Work: uniformWork(Global)},
			},
		},
		{
			ID:     "ext-xmin",
			Title:  "Extra-stage MIN vs TMIN vs DMIN, global uniform (Future Work: extra-stage MINs)",
			Expect: "one extra stage buys multipath routing cheaper than dilation but with a longer path",
			Loads:  uniformLoads,
			Curves: []Curve{
				{Label: "TMIN", Net: TMINCube, Work: uniformWork(Global)},
				{Label: "TMIN+1 extra stage", Net: NetworkSpec{Kind: TMINCube.Kind, K: 4, Stages: 3, Extra: 1}, Work: uniformWork(Global)},
				{Label: "DMIN d=2", Net: DMINCube, Work: uniformWork(Global)},
			},
		},
		{
			ID:     "ext-bmin-vc",
			Title:  "BMIN with and without virtual channels, global uniform (Future Work: BMINs with VCs)",
			Expect: "VCs on the unique downward path relieve backward-channel blocking",
			Loads:  uniformLoads,
			Curves: []Curve{
				{Label: "BMIN", Net: BMINButterfly, Work: uniformWork(Global)},
				{Label: "BMIN vc=2", Net: NetworkSpec{Kind: BMINButterfly.Kind, K: 4, Stages: 3, VCs: 2}, Work: uniformWork(Global)},
			},
		},
		{
			ID:     "ext-256node",
			Title:  "Four networks at 256 nodes (4x4, four stages), global uniform (Future Work: other network sizes)",
			Expect: "same ordering as 64 nodes; deeper networks saturate lower",
			Loads:  uniformLoads,
			Curves: []Curve{
				{Label: "TMIN", Net: NetworkSpec{Kind: TMINCube.Kind, Pattern: TMINCube.Pattern, K: 4, Stages: 4}, Work: uniformWork(Global)},
				{Label: "DMIN(d=2)", Net: NetworkSpec{Kind: DMINCube.Kind, Pattern: DMINCube.Pattern, K: 4, Stages: 4, Dilation: 2}, Work: uniformWork(Global)},
				{Label: "VMIN(vc=2)", Net: NetworkSpec{Kind: VMINCube.Kind, Pattern: VMINCube.Pattern, K: 4, Stages: 4, VCs: 2}, Work: uniformWork(Global)},
				{Label: "BMIN", Net: NetworkSpec{Kind: BMINButterfly.Kind, K: 4, Stages: 4}, Work: uniformWork(Global)},
			},
		},
		{
			ID:     "ext-8ary",
			Title:  "Four networks with 8x8 switches (64 nodes, two stages), global uniform (Future Work: other switch sizes)",
			Expect: "bigger switches shorten paths and raise saturation for all",
			Loads:  uniformLoads,
			Curves: []Curve{
				{Label: "TMIN", Net: NetworkSpec{Kind: TMINCube.Kind, Pattern: TMINCube.Pattern, K: 8, Stages: 2}, Work: uniformWork(Global)},
				{Label: "DMIN(d=2)", Net: NetworkSpec{Kind: DMINCube.Kind, Pattern: DMINCube.Pattern, K: 8, Stages: 2, Dilation: 2}, Work: uniformWork(Global)},
				{Label: "VMIN(vc=2)", Net: NetworkSpec{Kind: VMINCube.Kind, Pattern: VMINCube.Pattern, K: 8, Stages: 2, VCs: 2}, Work: uniformWork(Global)},
				{Label: "BMIN", Net: NetworkSpec{Kind: BMINButterfly.Kind, K: 8, Stages: 2}, Work: uniformWork(Global)},
			},
		},
		{
			ID:     "ext-bufdepth",
			Title:  "TMIN with 1-, 2- and 4-flit channel buffers, global uniform (Future Work: finite-buffer effects)",
			Expect: "deeper buffers absorb transient blocking and raise saturation",
			Loads:  uniformLoads,
			Curves: []Curve{
				{Label: "TMIN b=1", Net: TMINCube, Work: uniformWork(Global), BufferDepth: 1},
				{Label: "TMIN b=2", Net: TMINCube, Work: uniformWork(Global), BufferDepth: 2},
				{Label: "TMIN b=4", Net: TMINCube, Work: uniformWork(Global), BufferDepth: 4},
				{Label: "BMIN b=1", Net: BMINButterfly, Work: uniformWork(Global), BufferDepth: 1},
				{Label: "BMIN b=4", Net: BMINButterfly, Work: uniformWork(Global), BufferDepth: 4},
			},
		},
		{
			ID:     "ext-arbitration",
			Title:  "Random vs oldest-first arbitration on the TMIN and BMIN, global uniform (design-choice ablation)",
			Expect: "throughput nearly identical; age priority trims tail latency",
			Loads:  uniformLoads,
			Curves: []Curve{
				{Label: "TMIN random", Net: TMINCube, Work: uniformWork(Global), Arbitration: engine.ArbitrateRandom},
				{Label: "TMIN oldest-first", Net: TMINCube, Work: uniformWork(Global), Arbitration: engine.ArbitrateOldestFirst},
				{Label: "BMIN random", Net: BMINButterfly, Work: uniformWork(Global), Arbitration: engine.ArbitrateRandom},
				{Label: "BMIN oldest-first", Net: BMINButterfly, Work: uniformWork(Global), Arbitration: engine.ArbitrateOldestFirst},
			},
		},
		{
			ID:     "ext-patterns",
			Title:  "TMIN vs DMIN vs BMIN under classic permutations (Future Work: other nonuniform patterns)",
			Expect: "multipath networks dominate across adversarial permutations",
			Loads:  permutationLoads,
			Curves: []Curve{
				{Label: "TMIN bit-reverse", Net: TMINCube, Work: WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: NamedPerm, Name: "bitreverse"}}},
				{Label: "DMIN bit-reverse", Net: DMINCube, Work: WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: NamedPerm, Name: "bitreverse"}}},
				{Label: "BMIN bit-reverse", Net: BMINButterfly, Work: WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: NamedPerm, Name: "bitreverse"}}},
				{Label: "TMIN complement", Net: TMINCube, Work: WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: NamedPerm, Name: "complement"}}},
				{Label: "DMIN complement", Net: DMINCube, Work: WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: NamedPerm, Name: "complement"}}},
				{Label: "BMIN complement", Net: BMINButterfly, Work: WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: NamedPerm, Name: "complement"}}},
			},
		},
		{
			ID:     "ext-hotspot-cluster16",
			Title:  "Four networks, cluster-16 hot spot 5% (Section 5.3.2)",
			Expect: "same relative ordering as the global hot spot",
			Loads:  hotspotLoads,
			Curves: fourNetworks(WorkloadSpec{Cluster: Cluster16, Pattern: PatternSpec{Kind: HotSpot, HotX: 0.05}}),
		},
		{
			ID:     "ext-bursty-tmin",
			Title:  "TMIN under Poisson, MMPP and on-off arrivals, global uniform (ROADMAP: bursty traffic)",
			Expect: "same mean load and unchanged capacity, but burstiness inflates pre-saturation latency",
			Loads:  uniformLoads,
			Curves: []Curve{
				{Label: "TMIN poisson", Net: TMINCube, Work: uniformWork(Global)},
				{Label: "TMIN mmpp x8", Net: TMINCube, Work: WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: Uniform}, Arrival: BurstyMMPP}},
				{Label: "TMIN on-off 1:3", Net: TMINCube, Work: WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: Uniform}, Arrival: BurstyOnOff}},
			},
		},
		{
			ID:     "ext-bursty-bmin",
			Title:  "BMIN under Poisson, MMPP and on-off arrivals, global uniform (ROADMAP: bursty traffic)",
			Expect: "turnaround networks see the same pre-saturation latency inflation; capacity and ordering hold",
			Loads:  uniformLoads,
			Curves: []Curve{
				{Label: "BMIN poisson", Net: BMINButterfly, Work: uniformWork(Global)},
				{Label: "BMIN mmpp x8", Net: BMINButterfly, Work: WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: Uniform}, Arrival: BurstyMMPP}},
				{Label: "BMIN on-off 1:3", Net: BMINButterfly, Work: WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: Uniform}, Arrival: BurstyOnOff}},
			},
		},
		{
			ID:     "ext-adversarial",
			Title:  "TMIN vs DMIN vs BMIN under the searched worst-case permutation (ROADMAP: adversarial patterns)",
			Expect: "hill-climbed permutation saturates the TMIN below the shuffle; multipath networks shrug it off",
			Loads:  permutationLoads,
			Curves: []Curve{
				{Label: "TMIN adversarial", Net: TMINCube, Work: WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: Adversarial}}},
				{Label: "DMIN adversarial", Net: DMINCube, Work: WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: Adversarial}}},
				{Label: "BMIN adversarial", Net: BMINButterfly, Work: WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: Adversarial}}},
				{Label: "TMIN shuffle (reference)", Net: TMINCube, Work: WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: ShufflePerm}}},
			},
		},
	}
}

// Message-size ablation distributions (the paper's "long, short, and
// bimodal message sizes" future-work item).
var (
	shortLengths   = traffic.Lengths{Kind: "uniform", Min: 8, Max: 64}
	longLengths    = traffic.Lengths{Kind: "uniform", Min: 512, Max: 1024}
	bimodalLengths = traffic.Lengths{Kind: "bimodal", Short: 16, Long: 1024, PShort: 0.7}
)

// registry is every paper figure, then every extension, built once:
// simd looks an id up per request.
var registry = sync.OnceValue(func() []Experiment { return append(Figures(), Extensions()...) })

// ByID finds an experiment (paper figure or extension) by id. The
// caller owns the returned Loads and Curves; slices inside a curve's
// workload (Ratios, a trace) are shared and must not be written.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry() {
		if e.ID == id {
			e.Loads, e.Curves = slices.Clone(e.Loads), slices.Clone(e.Curves)
			return e, true
		}
	}
	return Experiment{}, false
}

// Titles yields the id and title of every paper figure, then every
// extension.
func Titles() iter.Seq2[string, string] {
	return func(yield func(string, string) bool) {
		for _, e := range registry() {
			if !yield(e.ID, e.Title) {
				return
			}
		}
	}
}
