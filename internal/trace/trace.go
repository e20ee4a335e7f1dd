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
	"minsim/internal/xrand"
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
// every delivery unboundedly; set Limit to cap retention on large-N
// runs, and Sample to turn the cap into a uniform reservoir over the
// whole run instead of a keep-first prefix.
type Recorder struct {
	Records []MessageRecord
	// Limit caps len(Records); 0 means unbounded. With Sample false the
	// first Limit deliveries are kept and the rest dropped.
	Limit int
	// Sample selects reservoir mode: with Limit > 0, every delivery of
	// the run is retained with equal probability Limit/deliveries.
	// Records order is then arbitrary, not delivery order.
	Sample bool
	// Seed drives the reservoir's PRNG; the same (Seed, delivery
	// stream) always retains the same sample.
	Seed uint64

	seen int64 // deliveries observed, including ones the cap dropped
	rng  *xrand.Source
}

// Reserve pre-sizes the record buffer for n further deliveries so a
// run with a known message budget does not pay repeated growth
// copies. With Limit set, the buffer never grows past it.
func (r *Recorder) Reserve(n int) {
	if r.Limit > 0 && n > r.Limit {
		n = r.Limit
	}
	if need := len(r.Records) + n; need > cap(r.Records) {
		grown := make([]MessageRecord, len(r.Records), need)
		copy(grown, r.Records)
		r.Records = grown
	}
}

// OnDeliver is the engine callback.
func (r *Recorder) OnDeliver(m engine.Message, completed int64) {
	r.seen++
	rec := MessageRecord{
		Src: m.Src, Dst: m.Dst, Len: m.Len,
		Created: m.Created, Delivered: completed,
	}
	if r.Limit <= 0 {
		r.Records = append(r.Records, rec)
		return
	}
	if len(r.Records) < r.Limit {
		r.Reserve(r.Limit - len(r.Records))
		r.Records = append(r.Records, rec)
		return
	}
	if !r.Sample {
		return
	}
	// Algorithm R: the i-th delivery replaces a random slot with
	// probability Limit/i, giving every delivery equal retention odds.
	if r.rng == nil {
		r.rng = xrand.New(r.Seed ^ 0x7ace5eed0b5e53a1)
	}
	if j := r.rng.Intn(int(r.seen)); j < r.Limit {
		r.Records[j] = rec
	}
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
