// Package cli holds what the command line tools share beyond the spec
// parsers of internal/experiments: the six network flags of cmd/minsim,
// cmd/sweep and cmd/topo, resolved through experiments.ParseNetworkSpec;
// the ratio and node-list syntax of -ratios and -dests; the pprof
// wiring behind -cpuprofile and -memprofile (cmd/sweep, cmd/figures);
// and the flags and serving shell of cmd/simd and cmd/simfleet.
package cli

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"minsim/internal/experiments"
	"minsim/internal/topology"
)

// NetworkFlags holds the six network flags a command registered with
// AddNetworkFlags.
type NetworkFlags struct {
	kind, wiring             *string
	k, stages, dilation, vcs *int
}

// AddNetworkFlags registers -net, -wiring, -k, -stages, -dilation and
// -vcs on fs. The dimensions default to 0, the family default the spec
// applies: dilation 2 on a DMIN, 2 virtual channels on a VMIN and 1 on
// a BMIN.
func AddNetworkFlags(fs *flag.FlagSet) *NetworkFlags {
	return &NetworkFlags{
		kind:     fs.String("net", "tmin", "network: tmin, dmin, vmin, bmin"),
		wiring:   fs.String("wiring", "cube", "interstage wiring of tmin, dmin and vmin: cube, butterfly, omega, baseline"),
		k:        fs.Int("k", 4, "switch arity"),
		stages:   fs.Int("stages", 3, "stages (nodes = k^stages)"),
		dilation: fs.Int("dilation", 0, "DMIN dilation (0 = 2)"),
		vcs:      fs.Int("vcs", 0, "virtual channels per link (0 = 2 on a VMIN, 1 on a BMIN)"),
	}
}

// Build resolves the flags into a network spec and builds the network
// it names.
func (f *NetworkFlags) Build() (experiments.NetworkSpec, *topology.Network, error) {
	spec, err := experiments.ParseNetworkSpec(experiments.NetworkOptions{
		Kind: *f.kind, Wiring: *f.wiring, K: *f.k, Stages: *f.stages, Dilation: *f.dilation, VCs: *f.vcs,
	})
	if err != nil {
		return spec, nil, err
	}
	net, err := spec.Build()
	return spec, net, err
}

// ParseRatios parses colon-separated per-cluster load ratios,
// e.g. "4:1:1:1".
func ParseRatios(s string) ([]float64, error) {
	parts := strings.Split(s, ":")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad ratio %q: %w", p, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("negative ratio %v", v)
		}
		out[i] = v
	}
	return out, nil
}

// ParseNodeList parses a comma-separated node list, e.g. "1,2,16".
func ParseNodeList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty node list")
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad node %q: %w", p, err)
		}
		out[i] = v
	}
	return out, nil
}
