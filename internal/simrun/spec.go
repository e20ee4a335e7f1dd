// Package simrun is the run-plan layer between the experiment
// definitions (internal/experiments) and the simulation engine. It
// owns the declarative vocabulary for a single simulation point — a
// network spec, a workload spec, a load, a cycle budget and a seed —
// and turns sets of requested load sweeps into a deduplicated plan of
// point-runs executed on a bounded worker pool, with an optional
// content-addressed on-disk result cache (see store.go) keyed by a
// stable hash of the spec plus an engine-behavior fingerprint (see
// runspec.go).
//
// The engine is a pure function of its configuration and seed, so two
// requests for the same canonical RunSpec always produce byte-equal
// results; the plan executes each unique spec once no matter how many
// figure panels ask for it, and the cache makes re-runs of already
// simulated points free across process invocations.
package simrun

import (
	"fmt"

	"minsim/internal/engine"
	"minsim/internal/kary"
	"minsim/internal/routing"
	"minsim/internal/topology"
	"minsim/internal/traffic"
)

// SourceFactory builds a fresh traffic source for a given offered
// load (flits/node/cycle) and seed.
type SourceFactory func(load float64, seed uint64) (engine.Source, error)

// NetworkSpec names a buildable network configuration. All paper
// experiments use 64 nodes with 4x4 switches (K = 4, Stages = 3).
type NetworkSpec struct {
	Kind     topology.Kind
	Pattern  topology.Pattern // for unidirectional kinds
	K        int
	Stages   int
	Dilation int // DMIN only (0 -> 2)
	VCs      int // VMIN only (0 -> 2); BMIN virtual-channel variant
	Extra    int // extra distribution stages (unidirectional kinds)
}

// builderArgs resolves the spec into the topology builder's arguments,
// defaults applied: a UniConfig for the unidirectional kinds, and for a
// BMIN (bmin true) its K, Stages and VCs.
func (s NetworkSpec) builderArgs() (cfg topology.UniConfig, bmin bool, err error) {
	cfg = topology.UniConfig{K: s.K, Stages: s.Stages, Pattern: s.Pattern, Dilation: 1, VCs: 1, Extra: s.Extra}
	switch s.Kind {
	case topology.BMIN:
		if cfg.VCs = s.VCs; cfg.VCs == 0 {
			cfg.VCs = 1
		}
		return cfg, true, nil
	case topology.TMIN:
	case topology.DMIN:
		if cfg.Dilation = s.Dilation; cfg.Dilation == 0 {
			cfg.Dilation = 2
		}
	case topology.VMIN:
		if cfg.VCs = s.VCs; cfg.VCs == 0 {
			cfg.VCs = 2
		}
	default:
		return cfg, false, fmt.Errorf("simrun: unknown network kind %v", s.Kind)
	}
	return cfg, false, nil
}

// MaxChannels bounds the networks a spec may describe. A description
// costs nothing to parse or build however large the network it names,
// but an engine over it allocates per channel, so the size is checked
// where the description is. The 64K-node VC-2 network is 2.2 M channels.
const MaxChannels = 1 << 24

// Build constructs the network description.
func (s NetworkSpec) Build() (*topology.Network, error) {
	cfg, bmin, err := s.builderArgs()
	if err != nil {
		return nil, err
	}
	var net *topology.Network
	if bmin {
		net, err = topology.NewBMINVC(cfg.K, cfg.Stages, cfg.VCs)
	} else {
		net, err = topology.NewUnidirectional(cfg)
	}
	if err != nil {
		return nil, err
	}
	if chans := channelCount(net.Nodes, cfg, bmin); chans > MaxChannels {
		return nil, fmt.Errorf("simrun: %s describes %.0f channels, over the %d a run admits", s, chans, MaxChannels)
	}
	return net, nil
}

// Check reports the error Build would return, or nil: validating a
// description is building it, which costs nothing however large the
// network it describes.
func (s NetworkSpec) Check() error {
	_, err := s.Build()
	return err
}

// channelCount is topology.Network.ChannelCount — two edge layers' worth
// of node channels and the interstage layers between — as a float:
// nothing bounds the factors before this, and an int would wrap where a
// float only rounds.
func channelCount(nodes int, cfg topology.UniConfig, bmin bool) float64 {
	inner, perWire := float64(cfg.Stages-1)+float64(cfg.Extra), float64(cfg.Dilation)*float64(cfg.VCs)
	if bmin {
		inner, perWire = float64(cfg.Stages-1), 2*float64(cfg.VCs)
	}
	return float64(nodes) * (2 + inner*perWire)
}

// canon normalizes the spec so that configurations Build treats
// identically hash identically: family defaults are applied and
// fields the family ignores are zeroed.
func (s NetworkSpec) canon() NetworkSpec {
	switch s.Kind {
	case topology.BMIN:
		s.Pattern, s.Dilation, s.Extra = 0, 0, 0
		if s.VCs == 0 {
			s.VCs = 1
		}
	case topology.TMIN:
		s.Dilation, s.VCs = 1, 1
	case topology.DMIN:
		s.VCs = 1
		if s.Dilation == 0 {
			s.Dilation = 2
		}
	case topology.VMIN:
		s.Dilation = 1
		if s.VCs == 0 {
			s.VCs = 2
		}
	}
	return s
}

// String returns a compact human-readable name, e.g.
// "DMIN(cube k=4 s=3 d=2)".
func (s NetworkSpec) String() string {
	c := s.canon()
	detail := fmt.Sprintf("%s k=%d s=%d", c.Pattern, c.K, c.Stages)
	if s.Kind == topology.BMIN {
		detail = fmt.Sprintf("k=%d s=%d", c.K, c.Stages)
	}
	if c.Dilation > 1 {
		detail += fmt.Sprintf(" d=%d", c.Dilation)
	}
	if c.VCs > 1 {
		detail += fmt.Sprintf(" vc=%d", c.VCs)
	}
	if c.Extra > 0 {
		detail += fmt.Sprintf(" x=%d", c.Extra)
	}
	return fmt.Sprintf("%s(%s)", s.Kind, detail)
}

// ClusterSpec names a node clustering of the 64-node system.
type ClusterSpec int

// Clustering scopes from Section 5.1 of the paper.
const (
	Global          ClusterSpec = iota // one 64-node cluster
	Cluster16                          // four base cubes 0XX..3XX
	Cluster16Shared                    // butterfly channel-shared XX0..XX3
	Cluster32                          // two binary-cube halves
)

// String returns the human-readable name.
func (c ClusterSpec) String() string {
	switch c {
	case Global:
		return "global"
	case Cluster16:
		return "cluster-16"
	case Cluster16Shared:
		return "cluster-16-shared"
	case Cluster32:
		return "cluster-32"
	}
	return fmt.Sprintf("ClusterSpec(%d)", int(c))
}

// clustering materializes the spec for an N-node radix space.
func (c ClusterSpec) clustering(r kary.Radix) traffic.Clustering {
	switch c {
	case Cluster16:
		return traffic.Cluster16(r)
	case Cluster16Shared:
		return traffic.Cluster16Shared(r)
	case Cluster32:
		return traffic.Halves(r.Size())
	default:
		return traffic.Global(r.Size())
	}
}

// PatternSpec names a destination pattern.
type PatternSpec struct {
	Kind      PatternKind
	HotX      float64        // HotSpot: extra fraction (0.05 = "5% more")
	Butterfly int            // ButterflyPerm: permutation index i
	Name      string         // NamedPerm: traffic.PatternByName name
	Trace     []traffic.Pair // TraceReplay: recorded src→dst pairs
	AdvIters  int            // Adversarial: search iterations (0 = 4096)
}

// PatternKind enumerates the paper's four traffic patterns, the named
// classic permutations of traffic.PatternByName, trace replay, and
// the adversarial worst-case permutation search.
type PatternKind int

// Pattern kinds.
const (
	Uniform PatternKind = iota
	HotSpot
	ShufflePerm
	ButterflyPerm
	NamedPerm
	TraceReplay
	Adversarial
)

// defaultAdvIters is the hill-climb budget when PatternSpec.AdvIters
// is zero; advSearchSeed makes the search a pure function of the spec
// and the network, so the resolved permutation can never drift
// between the run that writes a cache entry and the run that reads it.
const (
	defaultAdvIters = 4096
	advSearchSeed   = 0x5eeded1
)

// String returns the human-readable name.
func (p PatternSpec) String() string {
	switch p.Kind {
	case Uniform:
		return "uniform"
	case HotSpot:
		return fmt.Sprintf("hotspot-%g%%", 100*p.HotX)
	case ShufflePerm:
		return "shuffle"
	case ButterflyPerm:
		return fmt.Sprintf("butterfly-%d", p.Butterfly)
	case NamedPerm:
		return p.Name
	case TraceReplay:
		return fmt.Sprintf("trace-%d", len(p.Trace))
	case Adversarial:
		c, _ := p.canon()
		return fmt.Sprintf("adversarial-%d", c.AdvIters)
	}
	return fmt.Sprintf("PatternSpec(%d)", int(p.Kind))
}

// canon zeroes the parameters the pattern kind ignores and applies
// kind defaults, so equivalent specs hash identically. An unknown
// kind is an error — passing it through un-canonicalized would hash
// whatever stray parameters it carries, i.e. a typo'd kind would get
// an unstable key instead of a diagnosis.
func (p PatternSpec) canon() (PatternSpec, error) {
	switch p.Kind {
	case Uniform, ShufflePerm:
		return PatternSpec{Kind: p.Kind}, nil
	case HotSpot:
		return PatternSpec{Kind: p.Kind, HotX: p.HotX}, nil
	case ButterflyPerm:
		return PatternSpec{Kind: p.Kind, Butterfly: p.Butterfly}, nil
	case NamedPerm:
		return PatternSpec{Kind: p.Kind, Name: p.Name}, nil
	case TraceReplay:
		return PatternSpec{Kind: p.Kind, Trace: p.Trace}, nil
	case Adversarial:
		c := PatternSpec{Kind: p.Kind, AdvIters: p.AdvIters}
		if c.AdvIters == 0 {
			c.AdvIters = defaultAdvIters
		}
		return c, nil
	}
	return p, fmt.Errorf("simrun: unknown pattern kind %d", int(p.Kind))
}

// Validate reports whether the pattern spec names a known kind with
// usable parameters. Spec parsers call it so a bad pattern fails at
// parse time, not deep inside a factory.
func (p PatternSpec) Validate() error {
	c, err := p.canon()
	if err != nil {
		return err
	}
	if c.Kind == TraceReplay && len(c.Trace) == 0 {
		return fmt.Errorf("simrun: trace pattern with no recorded pairs")
	}
	if c.Kind == Adversarial && c.AdvIters < 0 {
		return fmt.Errorf("simrun: adversarial pattern with negative iterations %d", p.AdvIters)
	}
	return nil
}

// ArrivalSpec names an interarrival process. The zero value is the
// paper's Poisson stream. For MMPP, DwellHi/DwellLo are the mean
// cycles in the high- and low-rate phases and Burst the rate ratio;
// for OnOff, DwellHi is the mean ON dwell and DwellLo the mean OFF
// dwell (Burst is ignored).
type ArrivalSpec struct {
	Kind    ArrivalKind
	Burst   float64
	DwellHi float64
	DwellLo float64
}

// ArrivalKind enumerates the arrival processes of package traffic.
type ArrivalKind int

// Arrival kinds.
const (
	ArrivalExponential ArrivalKind = iota
	ArrivalMMPP
	ArrivalOnOff
)

// String returns the human-readable name.
func (a ArrivalSpec) String() string {
	switch a.Kind {
	case ArrivalExponential:
		return "poisson"
	case ArrivalMMPP:
		return fmt.Sprintf("mmpp-b%g-d%g/%g", a.Burst, a.DwellHi, a.DwellLo)
	case ArrivalOnOff:
		return fmt.Sprintf("onoff-d%g/%g", a.DwellHi, a.DwellLo)
	}
	return fmt.Sprintf("ArrivalSpec(%d)", int(a.Kind))
}

// canon zeroes the parameters the kind ignores, so equivalent specs
// hash identically; unknown kinds are an error, as for patterns.
func (a ArrivalSpec) canon() (ArrivalSpec, error) {
	switch a.Kind {
	case ArrivalExponential:
		return ArrivalSpec{}, nil
	case ArrivalMMPP:
		return ArrivalSpec{Kind: a.Kind, Burst: a.Burst, DwellHi: a.DwellHi, DwellLo: a.DwellLo}, nil
	case ArrivalOnOff:
		return ArrivalSpec{Kind: a.Kind, DwellHi: a.DwellHi, DwellLo: a.DwellLo}, nil
	}
	return a, fmt.Errorf("simrun: unknown arrival kind %d", int(a.Kind))
}

// process materializes the traffic.ArrivalProcess, validating the
// parameters.
func (a ArrivalSpec) process() (traffic.ArrivalProcess, error) {
	c, err := a.canon()
	if err != nil {
		return nil, err
	}
	var p traffic.ArrivalProcess
	switch c.Kind {
	case ArrivalExponential:
		p = traffic.Exponential{}
	case ArrivalMMPP:
		p = traffic.MMPP2{Burst: c.Burst, DwellHi: c.DwellHi, DwellLo: c.DwellLo}
	case ArrivalOnOff:
		p = traffic.OnOff{DwellOn: c.DwellHi, DwellOff: c.DwellLo}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Validate reports whether the arrival spec names a known process
// with usable parameters.
func (a ArrivalSpec) Validate() error {
	_, err := a.process()
	return err
}

// WorkloadSpec is a complete traffic description: who sends to whom
// (Cluster, Pattern, Ratios), when (Arrival), and how much (Lengths).
type WorkloadSpec struct {
	Cluster ClusterSpec
	Pattern PatternSpec
	Arrival ArrivalSpec      // zero value = the paper's Poisson stream
	Ratios  []float64        // per-cluster load ratios (nil = equal)
	Lengths *traffic.Lengths // nil = the paper's U{8..1024}
}

// lengths resolves nil Lengths to the paper's distribution.
func (w WorkloadSpec) lengths() traffic.Lengths {
	if w.Lengths == nil {
		return traffic.PaperLengths
	}
	return *w.Lengths
}

// String returns the human-readable name.
func (w WorkloadSpec) String() string {
	s := fmt.Sprintf("%s %s", w.Cluster, w.Pattern)
	if w.Arrival.Kind != ArrivalExponential {
		s += " " + w.Arrival.String()
	}
	if w.Ratios != nil {
		s += fmt.Sprintf(" ratios %v", w.Ratios)
	}
	return s
}

// Validate reports whether the workload's pattern, arrival and length
// specs are well-formed. Parsers call it so malformed specs fail before
// any plan is built.
func (w WorkloadSpec) Validate() error {
	if err := w.Pattern.Validate(); err != nil {
		return err
	}
	if err := w.Arrival.Validate(); err != nil {
		return err
	}
	return w.lengths().Validate()
}

// Factory returns a SourceFactory realizing the workload on the given
// network. Stateless patterns are built once and shared across the
// factory's invocations; the trace pattern carries replay cursors, so
// a fresh one is built per invocation (each engine must own its own
// cursors). The adversarial pattern resolves here —
// deterministically, from the spec and the network alone — to the
// worst permutation routing.WorstPermutation finds, the one workload
// that walks the network's routing function before it runs.
func (w WorkloadSpec) Factory(net *topology.Network) SourceFactory {
	lengths := w.lengths()
	c := w.Cluster.clustering(net.R)
	arrival, arrErr := w.Arrival.process()
	var pattern traffic.Pattern
	patErr := w.Pattern.Validate()
	newPattern := func() (traffic.Pattern, error) { return pattern, patErr }
	if patErr == nil {
		switch w.Pattern.Kind {
		case Uniform:
			pattern = traffic.Uniform{C: c}
		case HotSpot:
			pattern = traffic.HotSpot{C: c, X: w.Pattern.HotX}
		case ShufflePerm:
			pattern = traffic.ShufflePattern(net.R)
		case ButterflyPerm:
			pattern = traffic.ButterflyPattern(net.R, w.Pattern.Butterfly)
		case NamedPerm:
			pattern, patErr = traffic.PatternByName(w.Pattern.Name, net.R, c)
		case TraceReplay:
			pairs := w.Pattern.Trace
			newPattern = func() (traffic.Pattern, error) { return traffic.NewTracePattern(net.Nodes, pairs) }
		case Adversarial:
			spec, _ := w.Pattern.canon()
			perm, _ := routing.WorstPermutation(net, advSearchSeed, spec.AdvIters)
			pattern = traffic.Permutation{P: perm}
		}
	}
	return func(load float64, seed uint64) (engine.Source, error) {
		if arrErr != nil {
			return nil, arrErr
		}
		pat, err := newPattern()
		if err != nil {
			return nil, err
		}
		return traffic.NewWorkload(traffic.Config{
			Clusters: c,
			Pattern:  pat,
			Lengths:  lengths,
			Arrival:  arrival,
			Load:     load,
			Ratios:   w.Ratios,
			Seed:     seed,
		})
	}
}

// Budget sets the simulation effort per point.
type Budget struct {
	WarmupCycles  int64
	MeasureCycles int64
	Seed          uint64
	// Replicas asks for this many independent replications (distinct
	// derived seeds, see DeriveReplicaSeed) of every load point; the
	// sweep's results then report per-point means with confidence
	// intervals (metrics.MergeReplicas). 0 or 1 means a single run per
	// point, the pre-replication behavior. Each replica is an ordinary
	// point with its own key and store entry; the merge happens after
	// the cache (Handle.Points).
	Replicas int
}
