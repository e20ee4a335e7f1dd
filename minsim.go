// Package minsim is a flit-level simulator and analysis toolkit for
// switch-based wormhole multistage interconnection networks (MINs),
// reproducing Ni, Gui and Moore, "Performance Evaluation of
// Switch-Based Wormhole Networks" (ICPP 1995 / IEEE TPDS 9(5), 1997).
//
// It models the paper's four network families built from k x k
// switches — traditional MINs (TMIN), dilated MINs (DMIN), MINs with
// virtual channels (VMIN) and bidirectional butterfly MINs (BMIN,
// i.e. fat trees with turnaround routing) — under the paper's traffic
// patterns (uniform, hot spot, perfect k-shuffle and butterfly
// permutations, with global or clustered scopes and per-cluster load
// ratios), and measures average communication latency and normalized
// sustainable throughput.
//
// This package is the high-level facade. Typical use:
//
//	net, _ := minsim.NewNetwork(minsim.NetworkConfig{Kind: minsim.DMIN})
//	res, _ := minsim.Run(minsim.RunConfig{
//		Network:  net,
//		Workload: minsim.Workload{Pattern: minsim.Uniform},
//		Load:     0.4,
//	})
//	fmt.Println(res.MeanLatencyCycles, res.Throughput)
//
// The building blocks live in internal packages: topology (network
// graphs), routing (destination-tag and turnaround routing), engine
// (the wormhole simulator), traffic (workloads), partition
// (Section 4's partitionability theory), fattree (the Section 3.3
// equivalence) and experiments (the Figs. 16-20 harness).
package minsim

import (
	"cmp"
	"context"
	"fmt"

	"minsim/internal/metrics"
	"minsim/internal/simrun"
	"minsim/internal/topology"
	"minsim/internal/traffic"
)

// Kind selects a network family.
type Kind int

// The four network families of the paper.
const (
	TMIN Kind = iota // traditional unidirectional MIN
	DMIN             // dilated MIN (default dilation 2)
	VMIN             // virtual-channel MIN (default 2 VCs)
	BMIN             // bidirectional butterfly MIN / fat tree
)

// Wiring selects the interstage pattern of unidirectional networks.
type Wiring int

// Supported wirings. BMINs always use butterfly wiring. Omega and
// Baseline are the equivalent Delta wirings discussed in the paper's
// conclusion (Omega partitions like Cube; Baseline like Butterfly).
const (
	Cube Wiring = iota
	Butterfly
	Omega
	Baseline
)

// NetworkConfig describes a network. The zero value, with a Kind,
// yields the paper's standard 64-node network of 4x4 switches.
type NetworkConfig struct {
	Kind     Kind
	Wiring   Wiring // unidirectional kinds only; default Cube
	K        int    // switch arity (default 4); must be a power of two
	Stages   int    // number of stages (default 3); N = K^Stages nodes
	Dilation int    // DMIN channels per port (default 2)
	VCs      int    // VMIN virtual channels per link (default 2); optional for BMIN (default 1)
	Extra    int    // extra distribution stages for unidirectional kinds (default 0)
}

// Network is an immutable network instance; safe to share across
// concurrent simulations.
type Network struct {
	spec simrun.NetworkSpec // what the network was built from; Sweep's points name it
	topo *topology.Network
}

// NewNetwork builds a network. Family defaults and the size bound
// (simrun.MaxChannels) are those of every other entry point: the
// config maps onto a simrun.NetworkSpec, whose Build applies them.
func NewNetwork(cfg NetworkConfig) (*Network, error) {
	// Kind and Wiring enumerate the topology's kinds and patterns in
	// the same order.
	spec := simrun.NetworkSpec{
		Kind:     topology.Kind(cfg.Kind),
		Pattern:  topology.Pattern(cfg.Wiring),
		K:        cmp.Or(cfg.K, 4),
		Stages:   cmp.Or(cfg.Stages, 3),
		Dilation: cfg.Dilation,
		VCs:      cfg.VCs,
		Extra:    cfg.Extra,
	}
	topo, err := spec.Build()
	if err != nil {
		return nil, err
	}
	return &Network{spec: spec, topo: topo}, nil
}

// Nodes returns the number of processor nodes.
func (n *Network) Nodes() int { return n.topo.Nodes }

// Name returns a human-readable description.
func (n *Network) Name() string { return n.topo.Name() }

// Channels returns the total virtual-channel count, the paper's
// hardware-complexity proxy.
func (n *Network) Channels() int { return n.topo.ChannelCount() }

// Topology exposes the underlying network description for advanced
// use (analysis tools, custom engines); its Graph method builds the
// switch-level graph.
func (n *Network) Topology() *topology.Network { return n.topo }

// Pattern selects a traffic pattern.
type Pattern int

// The paper's four traffic patterns.
const (
	Uniform       Pattern = iota
	HotSpot               // x% nonuniform; set Workload.HotX
	ShufflePerm           // perfect k-shuffle permutation
	ButterflyPerm         // i-th butterfly permutation; set Workload.ButterflyI
)

// Arrival selects the process modulating when a node injects. The
// mean rate always equals the configured load; the processes differ
// only in how the arrivals clump.
type Arrival int

// Arrival processes.
const (
	Poisson Arrival = iota // the paper's exponential inter-arrival gaps
	MMPP                   // two-state Markov-modulated Poisson bursts; set Burst/DwellHi/DwellLo
	OnOff                  // strict silence/burst alternation; set DwellHi (on) / DwellLo (off)
)

// Scope selects how nodes are clustered for traffic locality.
type Scope int

// Clustering scopes from Section 5.1.
const (
	Global        Scope = iota // one cluster of all nodes
	Cluster16                  // k clusters fixing the top address digit
	ClusterShared              // k clusters fixing the bottom digit (butterfly channel-shared)
	Cluster32                  // two halves (binary cube)
)

// Workload describes traffic. The zero value is global uniform
// traffic with the paper's message lengths, U{8..1024} flits.
type Workload struct {
	Pattern    Pattern
	Scope      Scope
	HotX       float64   // HotSpot extra fraction (e.g. 0.05)
	ButterflyI int       // ButterflyPerm index (e.g. 2)
	Ratios     []float64 // per-cluster load ratios (nil = equal)
	MinLen     int       // message length range (default 8..1024)
	MaxLen     int

	Arrival Arrival // arrival process (default Poisson)
	Burst   float64 // MMPP hi/lo rate ratio (default 8)
	DwellHi float64 // mean burst/on dwell, cycles (default 500)
	DwellLo float64 // mean quiet/off dwell, cycles (default 2000)
}

// spec maps the workload onto simrun's vocabulary, whose pattern,
// scope and arrival kinds enumerate in the same order as the facade's.
// The facade's own defaults apply here: MMPP 8/500/2000 and the
// MinLen/MaxLen clamp.
func (w Workload) spec() (simrun.WorkloadSpec, error) {
	if w.Pattern < Uniform || w.Pattern > ButterflyPerm {
		return simrun.WorkloadSpec{}, fmt.Errorf("minsim: unknown pattern %d", int(w.Pattern))
	}
	spec := simrun.WorkloadSpec{
		Cluster: simrun.ClusterSpec(w.Scope),
		Pattern: simrun.PatternSpec{Kind: simrun.PatternKind(w.Pattern), HotX: w.HotX, Butterfly: w.ButterflyI},
		Arrival: simrun.ArrivalSpec{
			Kind:    simrun.ArrivalKind(w.Arrival),
			Burst:   cmp.Or(w.Burst, 8),
			DwellHi: cmp.Or(w.DwellHi, 500),
			DwellLo: cmp.Or(w.DwellLo, 2000),
		},
		Ratios: w.Ratios,
	}
	if w.MinLen != 0 || w.MaxLen != 0 {
		lo := cmp.Or(w.MinLen, 1)
		spec.Lengths = traffic.UniformLen{Min: lo, Max: max(w.MaxLen, lo)}
	}
	return spec, nil
}

// RunConfig parameterizes a single simulation.
type RunConfig struct {
	Network  *Network
	Workload Workload
	Load     float64 // offered load, flits/node/cycle

	WarmupCycles  int64 // default 20,000
	MeasureCycles int64 // default 60,000
	Seed          uint64
	QueueLimit    int // sustainability watermark (default 100)
	// BufferDepth sets the per-channel flit buffer capacity
	// (default: the paper's single-flit buffers).
	BufferDepth int
	// FailedChannels marks channels as permanently faulty; see
	// Network.CriticalChannelCount and the engine documentation.
	FailedChannels []int
}

// Result summarizes one simulation.
type Result struct {
	Offered float64
	// OfferedMeasured is the load the sources actually generated in
	// the measurement window — below Offered for permutation patterns
	// with fixed points or silent clusters.
	OfferedMeasured   float64
	Throughput        float64 // delivered flits/node/cycle
	MeanLatencyCycles float64
	MeanLatencyMs     float64 // at the paper's 20 flits/ms channels
	LatencyStdDev     float64
	MessagesMeasured  int64
	MaxSourceQueue    int
	Sustainable       bool
}

// Run executes one simulation point: RunObserved with no instruments.
func Run(cfg RunConfig) (Result, error) {
	res, _, err := RunObserved(cfg, ObserveOptions{})
	return res, err
}

// result converts a curve point; maxQueue is the engine's deepest
// source queue, which a plan's point does not carry (0 there).
func result(p metrics.Point, maxQueue int) Result {
	return Result{
		Offered:           p.Offered,
		OfferedMeasured:   p.OfferedMeasured,
		Throughput:        p.Throughput,
		MeanLatencyCycles: p.LatencyCyc,
		MeanLatencyMs:     p.LatencyMs,
		LatencyStdDev:     p.StdDev,
		MessagesMeasured:  p.Messages,
		MaxSourceQueue:    maxQueue,
		Sustainable:       p.Sustainable,
	}
}

// SweepConfig parameterizes a load sweep.
type SweepConfig struct {
	Network  *Network
	Workload Workload
	Loads    []float64

	WarmupCycles  int64
	MeasureCycles int64
	Seed          uint64
	QueueLimit    int
	Parallelism   int
}

// Sweep runs one simulation per load in parallel and returns the
// latency/throughput points in load order. It is one simrun plan: point
// i is the RunSpec of load i with seed simrun.DeriveSeed(Seed, i).
func Sweep(cfg SweepConfig) ([]Result, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("minsim: nil network")
	}
	work, err := cfg.Workload.spec()
	if err != nil {
		return nil, err
	}
	plan := simrun.NewPlan()
	h := plan.AddSweep(simrun.SweepSpec{
		Net:   cfg.Network.spec,
		Work:  work,
		Loads: cfg.Loads,
		Budget: simrun.Budget{
			WarmupCycles:  cmp.Or(cfg.WarmupCycles, 20_000),
			MeasureCycles: cmp.Or(cfg.MeasureCycles, 60_000),
			Seed:          cfg.Seed,
			QueueLimit:    cfg.QueueLimit,
		},
	})
	if err := plan.Execute(context.TODO(), simrun.Options{Workers: cfg.Parallelism}); err != nil {
		return nil, err
	}
	pts, err := h.Points()
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(pts))
	for i, p := range pts {
		out[i] = result(p, 0)
	}
	return out, nil
}
