// Package cost estimates switch hardware complexity and cycle-time
// effects for the four network families, in the spirit of Chien's
// cost/speed model for wormhole routers (the paper's reference [22],
// used by its Section 2.2 discussion of virtual-channel overheads and
// footnote 4 on BMIN switch complexity).
//
// The model is deliberately first-order: component counts scale as
//
//	crossbar area      ~ (in ports x fan-in) * (out ports x fan-out)
//	buffer area        ~ channels * depth
//	arbitration delay  ~ log2(requesters per output)
//	vc multiplex delay ~ log2(vcs) extra on the channel cycle
//
// which is enough to rank the designs and to quantify the paper's
// claims that "DMINs and BMINs have a similar hardware and packaging
// complexity" and that VC switches pay a cycle-time penalty ("another
// drawback is the increased flit processing delay within each switch,
// and thus long cycles").
package cost

import (
	"fmt"
	"math"

	"minsim/internal/topology"
)

// Switch summarizes one switch design's first-order hardware costs.
// Units are abstract: crossbar points, flit buffers, gate delays.
type Switch struct {
	Ports       int // ports per side (k)
	InChannels  int // input (virtual) channels terminating at the switch
	OutChannels int // output (virtual) channels leaving the switch
	Buffers     int // flit buffers (channels x depth)

	CrossbarPoints int     // crosspoint count of the internal crossbar
	ArbiterDelay   float64 // gate delays for output arbitration
	ChannelDelay   float64 // extra per-flit delay from VC multiplexing
}

// SwitchModel derives the per-switch costs for a network's switch
// design with the given buffer depth. All switches of a network are
// identical except for missing last-stage ports in BMINs; the model
// uses the fullest switch.
func SwitchModel(net *topology.Network, bufferDepth int) Switch {
	if bufferDepth < 1 {
		bufferDepth = 1
	}
	k := net.K()
	s := Switch{Ports: k}
	switch net.Kind {
	case topology.TMIN:
		s.InChannels, s.OutChannels = k, k
	case topology.DMIN:
		d := net.Dilation
		s.InChannels, s.OutChannels = k*d, k*d
	case topology.VMIN:
		m := net.VCs
		s.InChannels, s.OutChannels = k*m, k*m
	case topology.BMIN:
		// 2k ports (k left + k right), each with an input and an
		// output channel pair carrying VCs virtual channels.
		m := net.VCs
		s.InChannels, s.OutChannels = 2*k*m, 2*k*m
	}
	s.Buffers = s.InChannels * bufferDepth
	s.CrossbarPoints = s.InChannels * s.OutChannels
	// Arbitration: every output channel arbitrates among the input
	// channels that can request it. In these designs any input may
	// request any output (turnaround restrictions only remove cases).
	s.ArbiterDelay = log2ceil(s.InChannels)
	// VC multiplexing delay on every physical channel.
	vcs := 1
	if net.Kind == topology.VMIN || (net.Kind == topology.BMIN && net.VCs > 1) {
		vcs = net.VCs
	}
	s.ChannelDelay = log2ceil(vcs)
	return s
}

func log2ceil(n int) float64 {
	if n <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(n)))
}

// Network summarizes whole-network hardware costs.
type Network struct {
	Switches       int
	Channels       int // virtual channels (flit-buffer count at depth 1)
	Links          int // physical links (wire bundles)
	CrossbarPoints int // summed over switches
	Buffers        int // summed over switches
	// CycleTimePenalty is the relative per-flit delay increase from
	// arbitration and VC multiplexing, normalized to the TMIN switch
	// of the same arity (1.0 = no penalty).
	CycleTimePenalty float64
}

// NetworkModel sums switch costs over the network and normalizes the
// cycle-time penalty against a TMIN of the same arity.
func NetworkModel(net *topology.Network, bufferDepth int) Network {
	sw := SwitchModel(net, bufferDepth)
	out := Network{
		Switches:       net.SwitchCount(),
		Channels:       net.ChannelCount(),
		Links:          net.LinkCount(),
		CrossbarPoints: sw.CrossbarPoints * net.SwitchCount(),
		Buffers:        sw.Buffers * net.SwitchCount(),
	}
	// Baseline: a TMIN switch of the same arity has arbitration delay
	// log2(k) and no VC multiplexing.
	base := log2ceil(net.K())
	if base == 0 {
		base = 1
	}
	out.CycleTimePenalty = (sw.ArbiterDelay + sw.ChannelDelay + 1) / (base + 1)
	return out
}

// Report renders a comparison table of network models, one row per
// network, normalizing crossbar and buffer totals to the first row.
func Report(nets []*topology.Network, bufferDepth int) string {
	if len(nets) == 0 {
		return ""
	}
	models := make([]Network, len(nets))
	for i, n := range nets {
		models[i] = NetworkModel(n, bufferDepth)
	}
	refXbar := float64(models[0].CrossbarPoints)
	refBuf := float64(models[0].Buffers)
	s := fmt.Sprintf("%-34s %-9s %-9s %-8s %-10s %-10s %s\n",
		"network", "switches", "channels", "links", "xbar(rel)", "bufs(rel)", "cycle penalty")
	for i, n := range nets {
		m := models[i]
		s += fmt.Sprintf("%-34s %-9d %-9d %-8d %-10.2f %-10.2f %.2f\n",
			n.Name(), m.Switches, m.Channels, m.Links,
			float64(m.CrossbarPoints)/refXbar, float64(m.Buffers)/refBuf, m.CycleTimePenalty)
	}
	return s
}
