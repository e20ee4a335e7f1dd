package simrun

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"sync"

	"minsim/internal/engine"
	"minsim/internal/metrics"
	"minsim/internal/topology"
	"minsim/internal/traffic"
)

// specSchemaVersion is bumped whenever the canonical encoding below
// changes layout, so stale cache entries written under an older
// encoding can never collide with new keys.
const specSchemaVersion = 1

// RunSpec fully describes one simulation point declaratively: network
// and workload specs rather than built objects, the offered load, the
// cycle budget and the point's final derived seed. Being declarative
// is what makes it hashable — and therefore cacheable and dedupable.
type RunSpec struct {
	Net         NetworkSpec
	Work        WorkloadSpec
	Load        float64
	Warmup      int64
	Measure     int64
	Seed        uint64 // derived per-point seed (see DeriveSeed)
	BufferDepth int    // 0 = the paper's single-flit buffers
	Arbitration engine.Arbitration
}

// String names the point for logs and cache-entry metadata.
func (r RunSpec) String() string {
	return fmt.Sprintf("%s %s load=%g warm=%d meas=%d seed=%d", r.Net, r.Work, r.Load, r.Warmup, r.Measure, r.Seed)
}

// Key returns the content-address of the spec: a hex SHA-256 over the
// canonical field encoding and the engine-behavior fingerprint.
// Specs that Build/Simulate treat identically (default-valued vs
// explicit fields) share a key; any change to simulation semantics
// changes the fingerprint and thereby invalidates every prior key.
// An error means the spec names an unknown pattern, arrival or length
// kind, or the fingerprint probes failed: a spec that could not run.
//
// The hashed bytes are keyPrefix(Net, Work) followed by the point
// line; Plan.AddSweep builds the prefix once and calls keyAfter for
// each of the sweep's points.
//
//simvet:keypath
func (r RunSpec) Key() (string, error) {
	prefix, err := keyPrefix(r.Net, r.Work)
	if err != nil {
		return "", err
	}
	return r.keyAfter(prefix), nil
}

// keyPrefix canonically encodes everything of a key that a load sweep
// holds fixed: the schema line, the engine fingerprint, the network
// and the workload.
func keyPrefix(net NetworkSpec, work WorkloadSpec) ([]byte, error) {
	fp, err := Fingerprint()
	if err != nil {
		return nil, err
	}
	b := fmt.Appendf(make([]byte, 0, 256), "minsim-runspec-v%d\n%s\n", specSchemaVersion, fp)

	n := net.canon()
	b = fmt.Appendf(b, "net %d %d %d %d %d %d %d\n", int(n.Kind), int(n.Pattern), n.K, n.Stages, n.Dilation, n.VCs, n.Extra)

	p, err := work.Pattern.canon()
	if err != nil {
		return nil, err
	}
	b = fmt.Appendf(b, "work %d %d %x %d %q\n", int(work.Cluster), int(p.Kind), math.Float64bits(p.HotX), p.Butterfly, p.Name)
	// The trace, adv and arrival lines exist only for the kinds that
	// use them: every spec expressible before those kinds existed still
	// produces the exact byte stream it always did, so the warm cache
	// survives the schema opening without a version bump.
	if p.Kind == TraceReplay {
		b = fmt.Appendf(b, "trace %d", len(p.Trace))
		for _, pr := range p.Trace {
			b = fmt.Appendf(b, " %d:%d", pr.Src, pr.Dst)
		}
		b = append(b, '\n')
	}
	if p.Kind == Adversarial {
		b = fmt.Appendf(b, "adv %d\n", p.AdvIters)
	}
	a, err := work.Arrival.canon()
	if err != nil {
		return nil, err
	}
	if a.Kind != ArrivalExponential {
		b = fmt.Appendf(b, "arrival %d %x %x %x\n", int(a.Kind),
			math.Float64bits(a.Burst), math.Float64bits(a.DwellHi), math.Float64bits(a.DwellLo))
	}
	b = fmt.Appendf(b, "ratios %d", len(work.Ratios))
	for _, v := range work.Ratios {
		b = fmt.Appendf(b, " %x", math.Float64bits(v))
	}
	b = append(b, '\n')
	return appendLengths(b, work.lengths())
}

// keyAfter returns the key of r given keyPrefix(r.Net, r.Work): the
// hash of the prefix and r's point line ("point %x %d %d %d %d %d %d\n"
// in fmt's terms, the fifth %d engine.QueueLimit). The line is appended
// to prefix, in place when it has room; prefix itself is unchanged and
// serves the next point.
func (r RunSpec) keyAfter(prefix []byte) string {
	depth := r.BufferDepth
	if depth == 0 {
		depth = 1 // the paper's single-flit buffers
	}
	b := append(prefix, "point "...)
	b = append(strconv.AppendUint(b, math.Float64bits(r.Load), 16), ' ')
	b = append(strconv.AppendInt(b, r.Warmup, 10), ' ')
	b = append(strconv.AppendInt(b, r.Measure, 10), ' ')
	b = append(strconv.AppendUint(b, r.Seed, 10), ' ')
	b = append(strconv.AppendInt(b, engine.QueueLimit, 10), ' ')
	b = append(strconv.AppendInt(b, int64(depth), 10), ' ')
	b = append(strconv.AppendInt(b, int64(r.Arbitration), 10), '\n')
	sum := sha256.Sum256(b)
	var text [2 * sha256.Size]byte
	hex.Encode(text[:], sum[:])
	return string(text[:])
}

// appendLengths canonically encodes the message-length distribution.
func appendLengths(b []byte, l traffic.Lengths) ([]byte, error) {
	switch l.Kind {
	case "uniform":
		return fmt.Appendf(b, "len uniform %d %d\n", l.Min, l.Max), nil
	case "fixed":
		return fmt.Appendf(b, "len fixed %d\n", l.L), nil
	case "bimodal":
		return fmt.Appendf(b, "len bimodal %d %d %x\n", l.Short, l.Long, math.Float64bits(l.PShort)), nil
	}
	return nil, fmt.Errorf("simrun: unknown length kind %q", l.Kind)
}

// Point resolves the spec over net, the network its Net builds.
func (r RunSpec) Point(net *topology.Network) PointConfig {
	return PointConfig{
		Net:         net,
		Factory:     r.Work.Factory(net),
		Load:        r.Load,
		Seed:        r.Seed,
		Warmup:      r.Warmup,
		Measure:     r.Measure,
		BufferDepth: r.BufferDepth,
		Arbitration: r.Arbitration,
	}
}

// run builds the spec's network and executes the spec on it. The
// simulation advances in cancelQuantum legs, observing ctx between
// legs (chunked legs are bit-exact with a single full run). Each
// replica of a replicated point is one such run.
func (r RunSpec) run(ctx context.Context) (metrics.Point, error) {
	net, err := r.Net.Build()
	if err != nil {
		return metrics.Point{}, err
	}
	return r.Point(net).simulate(ctx)
}

var fingerprintOnce sync.Once
var fingerprintVal string
var fingerprintErr error

// Fingerprint returns a digest of observable engine behavior: a fixed
// set of probe simulations (small networks, both arbitration modes,
// deep buffers, hot-spot traffic) is run once per process and the
// resulting engine statistics are hashed. Any change to simulation
// semantics — routing, arbitration, flow control, traffic generation,
// metrics accounting — shifts the digest, so cache entries written
// under different behavior can never be served. Pure performance
// work (same results, faster) leaves the fingerprint unchanged, which
// is exactly the invariant the repo's determinism tests enforce.
func Fingerprint() (string, error) {
	fingerprintOnce.Do(func() {
		fingerprintVal, fingerprintErr = computeFingerprint()
	})
	return fingerprintVal, fingerprintErr
}

// fingerprintProbes are the behavior probes. Small (16-node) networks
// keep the one-time cost around a millisecond while still exercising
// the unidirectional and turnaround routers, both arbitration modes,
// virtual channels, multi-flit buffers and nonuniform traffic.
func fingerprintProbes() []RunSpec {
	return []RunSpec{
		{
			Net:     NetworkSpec{Kind: topology.TMIN, K: 4, Stages: 2},
			Work:    WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: Uniform}, Lengths: &traffic.Lengths{Kind: "uniform", Min: 4, Max: 32}},
			Load:    0.35,
			Warmup:  300,
			Measure: 1500,
			Seed:    11,
		},
		{
			Net:         NetworkSpec{Kind: topology.BMIN, K: 4, Stages: 2, VCs: 2},
			Work:        WorkloadSpec{Cluster: Cluster16, Pattern: PatternSpec{Kind: HotSpot, HotX: 0.1}, Lengths: &traffic.Lengths{Kind: "fixed", L: 16}},
			Load:        0.25,
			Warmup:      300,
			Measure:     1500,
			Seed:        13,
			BufferDepth: 2,
			Arbitration: engine.ArbitrateOldestFirst,
		},
	}
}

//simvet:keypath
func computeFingerprint() (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "minsim-fingerprint-v%d\n", specSchemaVersion)
	//simvet:bounded — two fixed 16-node probes, about a millisecond once per process
	for i, probe := range fingerprintProbes() {
		net, err := probe.Net.Build()
		if err != nil {
			return "", fmt.Errorf("simrun: fingerprint probe %d: %w", i, err)
		}
		e, err := probe.Point(net).NewEngine(nil)
		if err != nil {
			return "", fmt.Errorf("simrun: fingerprint probe %d: %w", i, err)
		}
		e.SetMeasureFrom(probe.Warmup)
		e.Run(probe.Warmup + probe.Measure)
		// The full Stats struct (not just the curve point) so that
		// semantics visible only in auxiliary counters still shift
		// the fingerprint.
		fmt.Fprintf(h, "probe %d ", i)
		if err := hashStats(h, e.Stats()); err != nil {
			return "", fmt.Errorf("simrun: fingerprint probe %d: %w", i, err)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))[:32], nil
}

// hashStats writes a canonical encoding of the engine statistics:
// field names in declaration order, integers in decimal, floats by
// IEEE-754 bit pattern. The previous %+v encoding rendered floats with
// default formatting — not a stable key encoding — which keypurity now
// forbids on the fingerprint path. Reflection keeps future Stats
// fields automatically fingerprinted: adding one changes the encoding,
// which invalidates the cache, which is the safe direction; a field of
// an unsupported kind is a loud error rather than a silent skip.
func hashStats(w io.Writer, s engine.Stats) error {
	v := reflect.ValueOf(s)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := v.Field(i)
		name := t.Field(i).Name
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fmt.Fprintf(w, "%s=%d ", name, f.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fmt.Fprintf(w, "%s=%d ", name, f.Uint())
		case reflect.Float32, reflect.Float64:
			fmt.Fprintf(w, "%s=%x ", name, math.Float64bits(f.Float()))
		case reflect.Bool:
			fmt.Fprintf(w, "%s=%t ", name, f.Bool())
		default:
			return fmt.Errorf("simrun: engine.Stats field %s has kind %s with no canonical encoding; extend hashStats", name, f.Kind())
		}
	}
	return nil
}
