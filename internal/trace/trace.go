// Package trace records per-message simulation events and renders
// utilization reports. It hangs off the engine's delivery callback
// and channel counters, costing nothing when unused.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"minsim/internal/engine"
	"minsim/internal/topology"
)

// MessageRecord is one delivered message.
type MessageRecord struct {
	Src, Dst, Len      int
	Created, Delivered int64
}

// Latency returns the message's end-to-end latency in cycles.
func (m MessageRecord) Latency() int64 { return m.Delivered - m.Created }

// Recorder collects MessageRecords. Install with
// engine.Config{OnDeliver: rec.OnDeliver}. The zero value records
// every delivery, in delivery order.
type Recorder struct {
	Records []MessageRecord
}

// OnDeliver is the engine callback.
func (r *Recorder) OnDeliver(m engine.Message, completed int64) {
	r.Records = append(r.Records, MessageRecord{
		Src: m.Src, Dst: m.Dst, Len: m.Len,
		Created: m.Created, Delivered: completed,
	})
}

// CSV renders all records with a header.
func (r *Recorder) CSV() string {
	var sb strings.Builder
	sb.WriteString("src,dst,len,created,delivered,latency\n")
	for _, m := range r.Records {
		fmt.Fprintf(&sb, "%d,%d,%d,%d,%d,%d\n", m.Src, m.Dst, m.Len, m.Created, m.Delivered, m.Latency())
	}
	return sb.String()
}

// BlockingReport renders the per-stage head-blocking counters: for
// each stage, how many head-blocked cycles its switches accumulated —
// the direct answer to "which stage is the bottleneck". totalCycles
// normalizes into blocked events per cycle.
func BlockingReport(blocked []int64, totalCycles int64) string {
	if len(blocked) == 0 || totalCycles <= 0 {
		return "blocking: no data\n"
	}
	var sb strings.Builder
	sb.WriteString("head-blocked cycles by stage:\n")
	var total int64
	for _, b := range blocked {
		total += b
	}
	for stage, b := range blocked {
		share := 0.0
		if total > 0 {
			share = 100 * float64(b) / float64(total)
		}
		fmt.Fprintf(&sb, "  G%d: %10d (%5.1f%% of blocking, %.3f per cycle)\n",
			stage, b, share, float64(b)/float64(totalCycles))
	}
	return sb.String()
}

// UtilizationReport summarizes per-layer channel utilization from the
// engine's channel counters: for each connection layer (and direction
// for BMINs), the mean, min and max fraction of cycles its channels
// carried a flit. This is the dynamic face of the paper's
// channel-balance arguments.
func UtilizationReport(net *topology.Network, flits []int64, cycles int64) string {
	if len(flits) != net.ChannelCount() || cycles <= 0 {
		return "utilization: no data\n"
	}
	type key struct {
		layer int
		dir   topology.Dir
	}
	type agg struct {
		sum      float64
		min, max float64
		n        int
	}
	layers := map[key]*agg{}
	for i := range flits {
		layer, _, dir := net.Address(i)
		u := float64(flits[i]) / float64(cycles)
		k := key{layer, dir}
		a := layers[k]
		if a == nil {
			a = &agg{min: u, max: u}
			layers[k] = a
		}
		a.sum += u
		a.n++
		if u < a.min {
			a.min = u
		}
		if u > a.max {
			a.max = u
		}
	}
	keys := make([]key, 0, len(layers))
	for k := range layers {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].layer != keys[j].layer {
			return keys[i].layer < keys[j].layer
		}
		return keys[i].dir < keys[j].dir
	})
	var sb strings.Builder
	sb.WriteString("channel utilization by layer (fraction of cycles busy):\n")
	fmt.Fprintf(&sb, "  %-10s %-9s %-8s %-8s %-8s\n", "layer", "channels", "mean", "min", "max")
	for _, k := range keys {
		a := layers[k]
		name := fmt.Sprintf("C%d", k.layer)
		if net.Kind == topology.BMIN {
			name = fmt.Sprintf("C%d.%s", k.layer, k.dir)
		}
		fmt.Fprintf(&sb, "  %-10s %-9d %-8.3f %-8.3f %-8.3f\n", name, a.n, a.sum/float64(a.n), a.min, a.max)
	}
	return sb.String()
}
