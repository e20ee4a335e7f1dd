package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"minsim/internal/topology"
	"minsim/internal/traffic"
)

// JSON experiment definitions let users describe custom figure panels
// without writing Go. The schema mirrors Experiment:
//
//	{
//	  "id": "my-exp",
//	  "title": "TMIN vs DMIN under my workload",
//	  "expect": "DMIN wins",
//	  "loads": [0.1, 0.3, 0.5],
//	  "curves": [
//	    {
//	      "label": "TMIN",
//	      "network": {"kind": "tmin", "wiring": "cube", "k": 4, "stages": 3},
//	      "workload": {"cluster": "global", "pattern": "uniform"}
//	    },
//	    {
//	      "label": "DMIN hot",
//	      "network": {"kind": "dmin", "dilation": 2},
//	      "workload": {"pattern": "hotspot", "hotx": 0.05,
//	                   "cluster": "cluster-16", "ratios": [4,1,1,1],
//	                   "minlen": 8, "maxlen": 1024},
//	      "bufferdepth": 2
//	    }
//	  ]
//	}
//
// Network kinds: tmin, dmin, vmin, bmin. Wirings: cube (default),
// butterfly, omega, baseline. Clusters: global (default), cluster-16,
// cluster-16-shared, cluster-32. Patterns: uniform (default),
// hotspot, shuffle, butterfly (with "butterflyi"), trace (with
// "trace": [{"src":0,"dst":1}, ...]), adversarial (with optional
// "adviters"), or any name from traffic.PatternByName (bitreverse,
// complement, transpose, tornado, neighbor). Arrivals: poisson
// (default), mmpp (with "burst", "dwellhi", "dwelllo"), onoff (with
// "dwellhi" = mean ON cycles, "dwelllo" = mean OFF cycles).

//simvet:wire — the experiment definition accepted by simd job requests.
type jsonExperiment struct {
	ID     string      `json:"id"`
	Title  string      `json:"title"`
	Expect string      `json:"expect"`
	Loads  []float64   `json:"loads"`
	Curves []jsonCurve `json:"curves"`
}

//simvet:wire
type jsonCurve struct {
	Label       string          `json:"label"`
	Network     NetworkOptions  `json:"network"`
	Workload    WorkloadOptions `json:"workload"`
	BufferDepth int             `json:"bufferdepth"`
}

// NetworkOptions is the string-keyed network description shared by the
// JSON experiment schema and the CLI flag sets (cmd/minsim); parse it
// with ParseNetworkSpec.
//
//simvet:wire
type NetworkOptions struct {
	Kind     string `json:"kind"`
	Wiring   string `json:"wiring"`
	K        int    `json:"k"`
	Stages   int    `json:"stages"`
	Dilation int    `json:"dilation"`
	VCs      int    `json:"vcs"`
	Extra    int    `json:"extra"`
}

// WorkloadOptions is the string-keyed workload description shared by
// the JSON experiment schema and the CLI flag sets; parse it with
// ParseWorkloadSpec.
//
//simvet:wire
type WorkloadOptions struct {
	Cluster    string         `json:"cluster"`
	Pattern    string         `json:"pattern"`
	HotX       float64        `json:"hotx"`
	ButterflyI int            `json:"butterflyi"`
	Trace      []traffic.Pair `json:"trace,omitempty"`
	AdvIters   int            `json:"adviters,omitempty"`
	Arrival    string         `json:"arrival,omitempty"`
	Burst      float64        `json:"burst,omitempty"`
	DwellHi    float64        `json:"dwellhi,omitempty"`
	DwellLo    float64        `json:"dwelllo,omitempty"`
	Ratios     []float64      `json:"ratios"`
	MinLen     int            `json:"minlen"`
	MaxLen     int            `json:"maxlen"`
}

// ParseJSON decodes a JSON experiment definition.
func ParseJSON(data []byte) (Experiment, error) {
	var je jsonExperiment
	if err := json.Unmarshal(data, &je); err != nil {
		return Experiment{}, fmt.Errorf("experiments: bad JSON: %w", err)
	}
	if je.ID == "" {
		return Experiment{}, fmt.Errorf("experiments: missing id")
	}
	if len(je.Loads) == 0 {
		return Experiment{}, fmt.Errorf("experiments: %s: no loads", je.ID)
	}
	for i := 1; i < len(je.Loads); i++ {
		if je.Loads[i] <= je.Loads[i-1] {
			return Experiment{}, fmt.Errorf("experiments: %s: loads must increase", je.ID)
		}
	}
	if je.Loads[0] <= 0 {
		return Experiment{}, fmt.Errorf("experiments: %s: loads must be positive", je.ID)
	}
	if len(je.Curves) == 0 {
		return Experiment{}, fmt.Errorf("experiments: %s: no curves", je.ID)
	}
	e := Experiment{ID: je.ID, Title: je.Title, Expect: je.Expect, Loads: je.Loads}
	if e.Title == "" {
		e.Title = je.ID
	}
	for i, jc := range je.Curves {
		if jc.Label == "" {
			return Experiment{}, fmt.Errorf("experiments: %s: curve %d missing label", je.ID, i)
		}
		net, err := ParseNetworkSpec(jc.Network)
		if err != nil {
			return Experiment{}, fmt.Errorf("experiments: %s/%s: %w", je.ID, jc.Label, err)
		}
		work, err := ParseWorkloadSpec(jc.Workload)
		if err != nil {
			return Experiment{}, fmt.Errorf("experiments: %s/%s: %w", je.ID, jc.Label, err)
		}
		if jc.BufferDepth < 0 {
			return Experiment{}, fmt.Errorf("experiments: %s/%s: negative buffer depth", je.ID, jc.Label)
		}
		e.Curves = append(e.Curves, Curve{Label: jc.Label, Net: net, Work: work, BufferDepth: jc.BufferDepth})
	}
	// Validate that the networks would build, without building them:
	// this runs on a server's request path, ahead of admission.
	for _, c := range e.Curves {
		if err := c.Net.Check(); err != nil {
			return Experiment{}, fmt.Errorf("experiments: %s/%s: %w", je.ID, c.Label, err)
		}
	}
	return e, nil
}

// ParseNetworkSpec resolves the string-keyed options (names are
// case-insensitive) into a NetworkSpec, applying the paper defaults
// for zero-valued dimensions.
func ParseNetworkSpec(jn NetworkOptions) (NetworkSpec, error) {
	spec := NetworkSpec{K: jn.K, Stages: jn.Stages, Dilation: jn.Dilation, VCs: jn.VCs, Extra: jn.Extra}
	if spec.K == 0 {
		spec.K = 4
	}
	if spec.Stages == 0 {
		spec.Stages = 3
	}
	switch strings.ToLower(jn.Kind) {
	case "tmin", "":
		spec.Kind = topology.TMIN
	case "dmin":
		spec.Kind = topology.DMIN
	case "vmin":
		spec.Kind = topology.VMIN
	case "bmin":
		spec.Kind = topology.BMIN
	default:
		return spec, fmt.Errorf("unknown network kind %q", jn.Kind)
	}
	switch strings.ToLower(jn.Wiring) {
	case "cube", "":
		spec.Pattern = topology.Cube
	case "butterfly":
		spec.Pattern = topology.Butterfly
	case "omega":
		spec.Pattern = topology.Omega
	case "baseline":
		spec.Pattern = topology.Baseline
	default:
		return spec, fmt.Errorf("unknown wiring %q", jn.Wiring)
	}
	return spec, nil
}

// ParseWorkloadSpec resolves the string-keyed options (names are
// case-insensitive) into a WorkloadSpec. Unrecognized pattern names
// fall through to traffic.PatternByName's classic permutations, which
// validate when the workload factory first runs.
func ParseWorkloadSpec(jw WorkloadOptions) (WorkloadSpec, error) {
	w := WorkloadSpec{}
	switch strings.ToLower(jw.Cluster) {
	case "global", "":
		w.Cluster = Global
	case "cluster-16", "cluster16":
		w.Cluster = Cluster16
	case "cluster-16-shared", "shared":
		w.Cluster = Cluster16Shared
	case "cluster-32", "cluster32":
		w.Cluster = Cluster32
	default:
		return w, fmt.Errorf("unknown cluster %q", jw.Cluster)
	}
	switch strings.ToLower(jw.Pattern) {
	case "uniform", "":
		w.Pattern = PatternSpec{Kind: Uniform}
	case "hotspot":
		if jw.HotX < 0 {
			return w, fmt.Errorf("negative hotx")
		}
		w.Pattern = PatternSpec{Kind: HotSpot, HotX: jw.HotX}
	case "shuffle":
		w.Pattern = PatternSpec{Kind: ShufflePerm}
	case "butterfly":
		w.Pattern = PatternSpec{Kind: ButterflyPerm, Butterfly: jw.ButterflyI}
	case "trace":
		w.Pattern = PatternSpec{Kind: TraceReplay, Trace: jw.Trace}
	case "adversarial":
		w.Pattern = PatternSpec{Kind: Adversarial, AdvIters: jw.AdvIters}
	default:
		// Named classic permutations are validated when the factory
		// first runs; reject obviously empty names here.
		w.Pattern = PatternSpec{Kind: NamedPerm, Name: jw.Pattern}
	}
	switch strings.ToLower(jw.Arrival) {
	case "poisson", "exponential", "":
		w.Arrival = ArrivalSpec{Kind: ArrivalExponential}
	case "mmpp":
		w.Arrival = ArrivalSpec{Kind: ArrivalMMPP, Burst: jw.Burst, DwellHi: jw.DwellHi, DwellLo: jw.DwellLo}
	case "onoff", "on-off":
		w.Arrival = ArrivalSpec{Kind: ArrivalOnOff, DwellHi: jw.DwellHi, DwellLo: jw.DwellLo}
	default:
		return w, fmt.Errorf("unknown arrival process %q", jw.Arrival)
	}
	w.Ratios = jw.Ratios
	if jw.MinLen != 0 || jw.MaxLen != 0 {
		w.Lengths = &traffic.Lengths{Kind: "uniform", Min: max(jw.MinLen, 1), Max: jw.MaxLen}
	}
	// Pattern, arrival and length parameters fail here, at parse time,
	// rather than deep inside the first factory call.
	if err := w.Validate(); err != nil {
		return w, err
	}
	return w, nil
}
