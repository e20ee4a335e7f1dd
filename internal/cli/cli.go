// Package cli holds what the command line tools share beyond the spec
// parsers of internal/experiments: the root facade's flag vocabulary
// for networks, wirings, patterns, scopes, ratios and node lists
// (cmd/minsim, cmd/mcast), and the pprof wiring behind -cpuprofile and
// -memprofile (cmd/sweep, cmd/figures).
package cli

import (
	"fmt"
	"strconv"
	"strings"

	"minsim"
)

// ParseKind maps a network name to its Kind.
func ParseKind(s string) (minsim.Kind, error) {
	switch strings.ToLower(s) {
	case "tmin":
		return minsim.TMIN, nil
	case "dmin":
		return minsim.DMIN, nil
	case "vmin":
		return minsim.VMIN, nil
	case "bmin":
		return minsim.BMIN, nil
	}
	return 0, fmt.Errorf("unknown network %q (want tmin, dmin, vmin, bmin)", s)
}

// ParseWiring maps a wiring name to its Wiring.
func ParseWiring(s string) (minsim.Wiring, error) {
	switch strings.ToLower(s) {
	case "cube":
		return minsim.Cube, nil
	case "butterfly":
		return minsim.Butterfly, nil
	case "omega":
		return minsim.Omega, nil
	case "baseline":
		return minsim.Baseline, nil
	}
	return 0, fmt.Errorf("unknown wiring %q (want cube, butterfly, omega, baseline)", s)
}

// ParsePattern maps a traffic-pattern name to its Pattern.
func ParsePattern(s string) (minsim.Pattern, error) {
	switch strings.ToLower(s) {
	case "uniform":
		return minsim.Uniform, nil
	case "hotspot":
		return minsim.HotSpot, nil
	case "shuffle":
		return minsim.ShufflePerm, nil
	case "butterfly":
		return minsim.ButterflyPerm, nil
	}
	return 0, fmt.Errorf("unknown pattern %q (want uniform, hotspot, shuffle, butterfly)", s)
}

// ParseScope maps a clustering name to its Scope.
func ParseScope(s string) (minsim.Scope, error) {
	switch strings.ToLower(s) {
	case "global":
		return minsim.Global, nil
	case "cluster16":
		return minsim.Cluster16, nil
	case "shared":
		return minsim.ClusterShared, nil
	case "cluster32":
		return minsim.Cluster32, nil
	}
	return 0, fmt.Errorf("unknown scope %q (want global, cluster16, shared, cluster32)", s)
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
