// Package engine is a deterministic, cycle-driven, flit-level
// simulator of wormhole switching over the MIN topologies described by
// package topology.
//
// Time advances in cycles; one cycle is the time a channel needs to
// transmit one flit (the paper's channels run at 20 flits/ms, so one
// cycle corresponds to 0.05 ms; see package metrics for conversions).
// Each (virtual) channel has a single-flit buffer at its downstream
// end, each physical link carries at most one flit per cycle, and a
// worm advances head-to-tail within a cycle so that an unblocked worm
// pipelines at one flit per cycle per hop — the paper's "switches
// operate asynchronously, but synchronize to simultaneously transmit
// all of the flits in a worm".
//
// Every cycle has two phases:
//
//  1. Allocation: worms whose head flit waits at the end of its
//     acquired path look up their candidate output channels and
//     claim a random free one; the head of each node's FCFS source
//     queue claims the node's injection channel when free. Contenders
//     are processed in a freshly shuffled order, which realizes the
//     paper's random selection among free dilated channels / forward
//     channels.
//
//  2. Advance: flits move forward. Moving into a channel consumes one
//     unit of that channel's physical-link budget, so virtual channels
//     sharing a link are multiplexed at flit granularity; the shuffled
//     service order makes the multiplexing fair in expectation (each
//     of a active VCs obtains W/a bandwidth, the paper's rule). A
//     channel is released the moment the worm's tail flit leaves it.
//
// Messages arriving at a destination are consumed immediately: flits
// reaching the ejection-channel buffer leave the network in the same
// cycle.
//
// The implementation keeps per-cycle cost proportional to active work
// rather than network size: pending arrivals sit on a min-heap keyed
// by creation cycle; the allocator arbitrates only over routable heads
// (not draining worms), and of those asks only the ones a release could
// have served since they last found every candidate taken — likewise
// only the source queues whose injection channel was freed (allocate,
// release; AllocateCounts reports the ratio); candidate sets come from
// a closed-form stage-factored lookup (routing.Factored — no interface
// dispatch and no per-network table on the hot path); a worm whose
// buffers are all occupied advances as a train in O(1) rather than hop
// by hop (advanceWorm); and
// a worm whose next moves are known without looking at it — blocked
// solid behind an unrouted head, or streaming one flit in and one out
// per cycle over links no other moving worm holds a channel on (quiet),
// until allocate grants a channel or wakes a worm beside it — sleeps:
// the advance sweep reads one wake slot per worm from a dense slice and
// touches only the worms that are due, so the sweep costs per moving
// worm, not per live worm (advance; SweepCounts reports the ratio).
// Where two moving worms share a link they take turns on it in the
// drawn order, and both are visited every cycle. A cycle in which no
// worm is due, or no head is unblocked, does not walk the sweep or the
// head pass at all: three counters say so (awake, minWake, unblocked).
// Every shuffle is still drawn in full, whether or not its order is
// walked, so the random stream does not depend on who sleeps or waits,
// and channel statistics change neither: they credit a sleeper's hops
// and a waiting head's cycles in bulk (settle).
// Oldest-first arbitration order is maintained incrementally on
// intrusive age lists (no per-cycle sort), provably idle stretches are
// skipped in one clock jump by Run/RunUntilDrained, and the steady-state
// Step path allocates nothing. See DESIGN.md §7 for the performance
// model and the behavioral gates (refsim differential tests,
// determinism tests, figure tolerances) that pin the semantics down.
package engine

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"minsim/internal/routing"
	"minsim/internal/topology"
	"minsim/internal/xrand"
)

// Message describes one packet offered to the network. The paper uses
// packet and message interchangeably (no packetization).
type Message struct {
	Src, Dst int
	Len      int   // flits
	Created  int64 // cycle at which the source makes it available
}

// Source supplies traffic. Implementations live in package traffic.
type Source interface {
	// Next returns the next message generated by the given node, in
	// nondecreasing Created order per node. ok = false means the node
	// generates no further traffic.
	Next(node int) (msg Message, ok bool)
}

// QueueLimit is the paper's sustainability watermark: offered load is
// sustainable while no source queue ever exceeds this many queued
// messages.
const QueueLimit = 100

// Config parameterizes an Engine.
type Config struct {
	// Net is the network; it is routed by its family's own algorithm
	// (destination-tag, or turnaround for a BMIN) in the closed form
	// routing.Factored.
	Net    *topology.Network
	Source Source
	Seed   uint64
	// OnDeliver, when non-nil, is called once per fully delivered
	// message with the message and its completion cycle (the cycle in
	// which its tail flit was consumed). Used by tracing (minsim run
	// -trace) and by tests that offer traffic reactively.
	OnDeliver func(msg Message, completed int64)
	// Arbitration selects how contending worms are ordered each cycle
	// when claiming channels and link bandwidth. The default
	// (ArbitrateRandom) reshuffles every cycle, realizing the paper's
	// random selection; ArbitrateOldestFirst gives strict age priority
	// (no starvation, lower latency variance, possible unfairness to
	// young worms under sustained conflict).
	Arbitration Arbitration
	// BufferDepth is the per-channel flit buffer capacity. Zero means
	// the paper's single-flit buffers. Deeper buffers decouple
	// adjacent hops (the paper's conclusion lists the one-flit buffer
	// as an explicit condition; cf. the finite-buffer analyses it
	// cites).
	BufferDepth int

	// failedChannels lists channel ids the allocator never grants. No
	// spec, flag or request sets it: it exists only so tests can strand
	// a worm or force a route (SetFailedChannels in export_test.go).
	failedChannels []int
}

// Arbitration is a worm-ordering policy for allocation and advance.
type Arbitration int

// Available arbitration policies.
const (
	ArbitrateRandom      Arbitration = iota // fresh shuffle every cycle
	ArbitrateOldestFirst                    // strict age order
)

// worm is an in-flight packet: the path of channels it has acquired
// and the positions of its flits on that path.
type worm struct {
	msg     Message
	id      int64
	path    []int   // acquired channel ids, path[0] = injection channel
	cnt     []uint8 // cnt[i]: flits buffered in path[i] (<= buffer depth)
	inj     int     // flits that have left the source queue
	del     int     // flits consumed at the destination
	tail    int     // index in path of the tail flit, -1 until inj == Len
	done    bool    // last path channel terminates at the destination node
	index   int     // position in Engine.worms, for swap-removal
	slot    int32   // position in Engine.slab, fixed for the worm's life; never 0
	headIdx int     // position in Engine.heads, -1 once done
	since   int64   // asleep streaming or flagged blocked: the last cycle credited
	wanted  uint64  // bit i: a flagged head found path[i] among its candidates (see release)

	// Intrusive age-ordered lists. Worm ids are assigned
	// monotonically, so appending at the tail on creation keeps both
	// lists sorted by id; O(1) unlinking on retirement preserves the
	// order that the slices' swap-removal destroys. ageNext/agePrev
	// thread every live worm (advance order), headNext/headPrev only
	// the routable heads (allocation order).
	ageNext, agePrev   *worm
	headNext, headPrev *worm
}

// Engine runs one simulation. Create with New, then call Step, Run or
// RunUntilDrained. An Engine is not safe for concurrent use; run
// parallel experiments with one Engine per goroutine.
type Engine struct {
	net  *topology.Network
	fact *routing.Factored // closed-form routing lookup
	src  Source
	rng  *xrand.Source

	now int64
	arb Arbitration

	// chanOwner[c] is the slab slot of the worm holding channel c, 0 when
	// free: 4 B a channel, and nothing the collector has to scan.
	chanOwner []int32
	chanLink  []int32 // per channel: physical link id; nil unless sharedLinks
	failed    []bool  // per channel: permanently faulty
	depth     uint8   // buffer depth per channel (flits)
	// Per-link flit budget, consulted only when sharedLinks: a link
	// whose channel has one owner can never be asked for twice a cycle.
	sharedLinks bool    // some link carries several channels (VMIN, BMIN with VCs)
	linkMark    []int64 // per link: epoch stamp of the last cycle the link carried a flit; nil unless sharedLinks
	epoch       int64   // advance-phase epoch, incremented every cycle

	worms []*worm // all live worms
	// wake[i] is the first cycle in which worms[i] needs a visit from the
	// advance sweep: 0 awake, never parked, anything else the cycle a
	// streaming worm's source runs down to its last flit (see advance).
	wake      []int64
	streaming int     // worms asleep streaming; each moves a flit in and one out per cycle
	heads     []*worm // live worms whose head still needs routing (not done)
	// blocked[i]: heads[i] found every candidate taken and none has been
	// released since, so allocate need not look at it (see allocate).
	blocked []bool
	// What lets a cycle skip a walk that would visit nobody (see advance,
	// allocate): awake counts the wake slots that read 0 and unblocked
	// the blocked flags that are clear, and no streaming sleeper wakes
	// before cycle minWake. The two int32s share a word, as depth and
	// sharedLinks do, so that an Engine (888 B, plus the allocator's 8 B
	// header) fits the 896 B size class; one more word makes it 1024 B.
	awake, unblocked int32
	minWake          int64
	// slab holds every worm the engine ever allocated, at its slot;
	// slab[0] is nil, so a free channel's owner reads as nil. Finished
	// worms wait on freeList and keep their slots when recycled.
	slab     []*worm
	freeList []*worm
	nextID   int64

	// Endpoints of the intrusive age lists (see worm): oldest/newest
	// span all live worms, oldestHead/newestHead the routable heads.
	oldest, newest         *worm
	oldestHead, newestHead *worm

	queues      [][]Message // per-node FCFS source queues
	qlive       []int       // nodes whose queue head may inject this cycle (see tryNode)
	qunsorted   bool        // a node was appended to qlive out of ascending order
	waiting     int         // nodes with a non-empty queue
	queuedTotal int         // total messages across all source queues

	pending  []Message   // per-node prefetched next arrival, valid while on the heap
	arrivals arrivalHeap // nodes with a prefetched arrival, keyed by Created
	arrInit  bool        // sources have been consulted once per node

	order    []int   // scratch arbitration-order buffer
	cand     []int   // scratch free-candidate buffer
	finished []*worm // scratch: worms fully delivered this cycle
	retired  []*worm // scratch: heads that completed routing this cycle

	// chanFlits counts flits transferred into each channel when
	// channel statistics are enabled (see EnableChannelStats).
	chanFlits []int64
	// blockedByStage counts head-blocked cycles per stage when channel
	// statistics are enabled: each cycle a head flit waits with every
	// candidate busy, the stage of the switch it waits at is charged.
	// Both are bookkeeping: no decision reads them (see settle).
	blockedByStage []int64

	// latencyHist, when non-nil, collects measured latencies.
	latencyHist *Histogram

	// batch-means collection (see batches.go).
	batchCycles int64
	batches     []batchAcc

	onDeliver func(msg Message, completed int64)

	stats Stats
	// measureFrom gates the measured statistics; see SetMeasureFrom.
	measureFrom int64

	// Advance-sweep and allocation work; see SweepCounts, AllocateCounts.
	sweepSlots, sweepVisits int64
	allocSlots, allocVisits int64
}

// never is the wake slot of a parked worm: no cycle reaches it.
const never = 1<<63 - 1

// Stats accumulates simulation measurements. Latency statistics count
// only messages created at or after the measurement start; flit
// throughput counts only flits delivered at or after it.
type Stats struct {
	Cycles         int64 // cycles simulated
	MeasuredCycles int64 // cycles at or after the measurement start
	Generated      int64 // messages generated (all)
	Delivered      int64 // messages fully delivered (all)
	DeliveredFlits int64 // flits delivered within the measurement window
	MeasuredMsgs   int64 // delivered messages created within the window
	LatencySum     int64 // sum of their latencies (cycles)
	LatencySumSq   float64
	LatencyMin     int64
	LatencyMax     int64
	MaxQueue       int   // high-water mark of any source queue (messages)
	QueueExceeded  bool  // a queue exceeded the sustainability limit
	StallCycles    int64 // cycles in which no flit moved while worms were active
	IdleSkipped    int64 // cycles fast-forwarded because the network was provably idle
	InjectedFlits  int64 // flits injected (all time)
	// GeneratedFlitsMeasured counts the flits of messages that entered
	// source queues within the measurement window — the effective
	// offered load, net of pattern fixed points and silent clusters.
	GeneratedFlitsMeasured int64
}

// MeanLatency returns the average measured latency in cycles, or 0
// when nothing was measured.
func (s Stats) MeanLatency() float64 {
	if s.MeasuredMsgs == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.MeasuredMsgs)
}

// OfferedMeasured returns the effective generated load over the
// measurement window in flits per node per cycle — what the traffic
// sources actually produced, net of permutation fixed points and
// silent clusters.
func (s Stats) OfferedMeasured(nodes int) float64 {
	if s.MeasuredCycles == 0 {
		return 0
	}
	return float64(s.GeneratedFlitsMeasured) / float64(s.MeasuredCycles) / float64(nodes)
}

// Throughput returns delivered flits per node per cycle over the
// measurement window — the fraction of the aggregate ejection
// bandwidth in use (see DESIGN.md for the normalization note).
func (s Stats) Throughput(nodes int) float64 {
	if s.MeasuredCycles == 0 {
		return 0
	}
	return float64(s.DeliveredFlits) / float64(s.MeasuredCycles) / float64(nodes)
}

// New builds an engine over the given configuration. The network is
// read in closed form: nothing here grows with it but the engine's own
// arrays. Those arrays come from an engine a finished point gave back
// with Recycle when one is at hand, so a run of points allocates them
// about once; the engine New returns behaves exactly as a fresh one
// (see reset).
func New(cfg Config) (*Engine, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("engine: nil network")
	}
	// A nil Source is allowed: callers may drive the engine purely
	// through Offer (e.g. the scripted tests).
	depth := cfg.BufferDepth
	if depth == 0 {
		depth = 1
	}
	if depth < 1 || depth > 255 {
		return nil, fmt.Errorf("engine: buffer depth %d out of range [1, 255]", depth)
	}
	for _, c := range cfg.failedChannels {
		if c < 0 || c >= cfg.Net.ChannelCount() {
			return nil, fmt.Errorf("engine: failed channel %d out of range", c)
		}
	}
	spares.Lock()
	var e *Engine
	if n := len(spares.list); n > 0 {
		e, spares.list[n-1] = spares.list[n-1], nil
		spares.list = spares.list[:n-1]
	}
	spares.Unlock()
	if e == nil {
		e = new(Engine)
	}
	e.reset(cfg, depth)
	return e, nil
}

// spares is a stack of the engines finished points gave back
// (Recycle), at most one per P. Unlike a sync.Pool a GC does not empty
// it, so a process that runs points builds each size of array about
// once however much else it allocates.
var spares struct {
	sync.Mutex
	list []*Engine
}

// reset makes e the engine New(cfg) describes, keeping only the backing
// arrays of its buffers. It is one struct assignment: every scalar,
// counter, flag and pointer starts at its zero or configured value by
// construction, and each buffer is carried over at length 0 — or at its
// working length with its contents rewritten or cleared where they are
// read before they are written (chanOwner, chanLink, linkMark, the
// per-node queues). The worms parked past len(slab) are reused by
// newWorm at the slots they had.
func (e *Engine) reset(cfg Config, depth int) {
	chans, nodes := cfg.Net.ChannelCount(), cfg.Net.Nodes
	// Every link carries at least one channel and every channel sits on
	// exactly one link, so links are private to their channel exactly
	// when the counts agree.
	shared := cfg.Net.LinkCount() < chans
	*e = Engine{
		net:         cfg.Net,
		fact:        routing.NewFactored(cfg.Net),
		src:         cfg.Source,
		rng:         xrand.New(cfg.Seed ^ 0x9e3779b97f4a7c15),
		arb:         cfg.Arbitration,
		depth:       uint8(depth),
		sharedLinks: shared,
		onDeliver:   cfg.OnDeliver,
		stats:       Stats{LatencyMin: 1<<63 - 1},

		chanOwner: sized(e.chanOwner, chans),
		chanLink:  e.chanLink[:0],
		linkMark:  e.linkMark[:0],
		slab:      append(e.slab[:0], nil),
		queues:    sized(e.queues, nodes),
		pending:   sized(e.pending, nodes),
		arrivals:  arrivalHeap{nodes: e.arrivals.nodes[:0], keys: e.arrivals.keys[:0]},

		worms:    e.worms[:0],
		wake:     e.wake[:0],
		heads:    e.heads[:0],
		blocked:  e.blocked[:0],
		freeList: e.freeList[:0],
		qlive:    e.qlive[:0],
		order:    e.order[:0],
		cand:     e.cand[:0],
		finished: e.finished[:0],
		retired:  e.retired[:0],
		batches:  e.batches[:0],
	}
	clear(e.chanOwner)
	for i := range e.queues {
		e.queues[i] = e.queues[i][:0]
	}
	e.arrivals.reserve(nodes)
	if shared {
		e.chanLink = sized(e.chanLink, chans)
		for c := range e.chanLink {
			e.chanLink[c] = int32(cfg.Net.LinkOf(c))
		}
		e.linkMark = sized(e.linkMark, cfg.Net.LinkCount())
		clear(e.linkMark)
	}
	if len(cfg.failedChannels) > 0 {
		e.failed = make([]bool, chans)
		for _, c := range cfg.failedChannels {
			e.failed[c] = true
		}
	}
}

// sized returns s at length n, on its own backing array when that is
// large enough; the contents are whatever the array held.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Recycle gives the engine's memory to the next New. It drops every
// reference to what the caller or the configuration owns — the network,
// its routing, the source, the delivery hook, the histogram and the
// channel statistics (ChannelFlits and BlockedByStage return live
// slices) — so a parked engine pins none of it. When GOMAXPROCS
// engines are already parked the engine is dropped instead. The engine
// must not be used after Recycle.
func (e *Engine) Recycle() {
	e.net, e.fact, e.src, e.onDeliver = nil, nil, nil, nil
	e.latencyHist, e.chanFlits, e.blockedByStage = nil, nil, nil
	spares.Lock()
	if len(spares.list) < runtime.GOMAXPROCS(0) {
		spares.list = append(spares.list, e)
	}
	spares.Unlock()
}

// EnableLatencyHistogram attaches a histogram that collects the
// latency (in cycles) of every measured message. Call before running.
func (e *Engine) EnableLatencyHistogram(h *Histogram) { e.latencyHist = h }

// Now returns the current cycle.
func (e *Engine) Now() int64 { return e.now }

// Stats returns a snapshot of the accumulated statistics.
func (e *Engine) Stats() Stats { return e.stats }

// ActiveWorms returns the number of packets currently in the network.
func (e *Engine) ActiveWorms() int { return len(e.worms) }

// QueuedMessages returns the total number of messages waiting in
// source queues.
func (e *Engine) QueuedMessages() int { return e.queuedTotal }

// EnableChannelStats turns on per-channel flit counting and per-stage
// blocking, used by the utilization analyses (e.g. validating Lemma 1's
// channel balance dynamically). It may be called between any two cycles;
// what happened before is not counted.
func (e *Engine) EnableChannelStats() {
	if e.chanFlits == nil {
		e.chanFlits = make([]int64, e.net.ChannelCount())
		e.blockedByStage = make([]int64, e.net.Stages)
		// Bring sleepers and flagged heads up to now, counting none of it.
		e.settle()
		clear(e.chanFlits)
		clear(e.blockedByStage)
	}
}

// SweepCounts reports the advance sweep's work since construction:
// slots is the number of worm-cycles swept (live worms summed over
// simulated cycles), visited how many of them the sweep had to look at
// — the rest were asleep (see advance). Both are pure functions of the
// simulation, so visited/slots is a cost measure that does not depend
// on the machine's clock.
func (e *Engine) SweepCounts() (slots, visited int64) { return e.sweepSlots, e.sweepVisits }

// AllocateCounts reports allocate's work since construction: slots is
// the number of contenders it arbitrated over (routable heads plus nodes
// with a queued message, summed over simulated cycles), visited how many
// of them it had to look at — the rest waited for a channel that no
// release had freed (see allocate). Like SweepCounts, both are pure
// functions of the simulation.
func (e *Engine) AllocateCounts() (slots, visited int64) { return e.allocSlots, e.allocVisits }

// BlockedByStage returns, per stage, the number of head-blocked
// cycles charged to switches of that stage since EnableChannelStats —
// where the contention lives — or nil unless channel statistics are
// enabled. The slice is settled as of the call and live: copy it if the
// engine keeps running.
func (e *Engine) BlockedByStage() []int64 { e.settle(); return e.blockedByStage }

// ChannelFlits returns the number of flits transferred into each
// channel since EnableChannelStats, indexed by channel id, or nil if
// channel statistics were never enabled. The slice is settled as of the
// call and live: copy it if the engine keeps running.
func (e *Engine) ChannelFlits() []int64 { e.settle(); return e.chanFlits }

// settle credits what streaming sleepers and flagged heads owe the
// statistics up to the end of the last cycle, if they are kept. It
// wakes no worm and clears no flag, so no later cycle visits anything
// else.
func (e *Engine) settle() {
	if e.chanFlits == nil {
		return
	}
	for i, w := range e.worms {
		if e.streams(i) || w.headIdx >= 0 && e.blocked[w.headIdx] {
			e.credit(w, e.now-1)
		}
	}
}

// LinkUtilization returns, per physical link, the fraction of
// simulated cycles in which the link carried a flit. It requires
// channel statistics and at least one simulated cycle.
func (e *Engine) LinkUtilization() []float64 {
	if e.chanFlits == nil || e.stats.Cycles == 0 {
		return nil
	}
	out := make([]float64, e.net.LinkCount())
	for c, n := range e.ChannelFlits() {
		out[e.net.LinkOf(c)] += float64(n)
	}
	for i := range out {
		out[i] /= float64(e.stats.Cycles)
	}
	return out
}

// SetMeasureFrom sets the cycle at which measurement starts. Messages
// created earlier are simulated but excluded from latency statistics;
// flits delivered earlier are excluded from throughput. Call it before
// the warmup has elapsed.
func (e *Engine) SetMeasureFrom(cycle int64) { e.measureFrom = cycle }

// Run advances the simulation by the given number of cycles. Idle
// stretches — no worm in flight, no message queued, and the earliest
// pending arrival still in the future — are skipped in one jump; the
// skipped cycles are credited to Stats so latency and throughput
// accounting is identical to stepping through them one by one (idle
// cycles move no flits and draw no random numbers).
//
// Compute is proportional to cycles with no internal cancellation
// point; callers needing bounded cancellation latency chunk their
// calls (see simrun's cancelQuantum legs). Chunking changes nothing:
// idle-skip credits are additive over adjacent legs, so several Runs
// accumulate exactly the Stats one Run over their sum would.
func (e *Engine) Run(cycles int64) {
	target := e.now + cycles
	for e.now < target {
		if e.skipIdle(target) {
			continue
		}
		e.Step()
	}
}

// RunUntilDrained runs until every generated message has been
// delivered and the traffic source is exhausted, or maxCycles elapse.
// It returns true if the network drained. Like Run, it fast-forwards
// over provably idle stretches. Compute is bounded only by maxCycles;
// callers chunk for cancellation latency.
func (e *Engine) RunUntilDrained(maxCycles int64) bool {
	target := e.now + maxCycles
	for e.now < target {
		if e.drained() {
			return true
		}
		if e.skipIdle(target) {
			continue
		}
		e.Step()
	}
	return e.drained()
}

func (e *Engine) drained() bool {
	if len(e.worms) > 0 || e.queuedTotal > 0 {
		return false
	}
	if e.src == nil {
		return true
	}
	// After the first admission pass, a node has either a prefetched
	// arrival on the heap or an exhausted source.
	return e.arrInit && e.arrivals.len() == 0
}

// skipIdle jumps the clock to the next cycle in which anything can
// happen — the earliest pending arrival, capped at limit — when the
// network is provably idle. It returns whether a jump occurred.
// Skipped cycles are credited to Cycles/MeasuredCycles exactly as if
// they had been simulated: an idle cycle moves no flit, charges no
// stall, and consumes no random draws.
func (e *Engine) skipIdle(limit int64) bool {
	if len(e.worms) > 0 || e.queuedTotal > 0 {
		return false
	}
	next := limit
	if e.src != nil {
		if !e.arrInit {
			return false // sources not consulted yet; Step will do it
		}
		if e.arrivals.len() > 0 {
			if _, k := e.arrivals.min(); k < next {
				next = k
			}
		}
	}
	if next <= e.now {
		return false
	}
	skipped := next - e.now
	from := e.now
	if from < e.measureFrom {
		from = e.measureFrom
	}
	if next > from {
		e.stats.MeasuredCycles += next - from
	}
	e.stats.Cycles += skipped
	e.stats.IdleSkipped += skipped
	e.now = next
	return true
}

// Step simulates one cycle. It is the steady-state hot path: nothing
// reachable from here may allocate (the 0 allocs/cycle contract;
// TestStepAllocs measures Step, Run and RunUntilDrained on every
// family, and the benchmark's traced run reports it as
// engine.allocs_per_cycle, see bench/README.md).
func (e *Engine) Step() {
	e.admitArrivals()
	e.allocate()
	moved := e.advance()
	if !moved && len(e.worms) > 0 {
		e.stats.StallCycles++
	}
	if e.now >= e.measureFrom {
		e.stats.MeasuredCycles++
	}
	e.now++
	e.stats.Cycles++
}

// Offer enqueues a message directly into its source node's FCFS
// queue, bypassing the Source. The message's Created time is clamped
// to the current cycle if it lies in the past. Used by drivers that
// script their traffic or generate it reactively (the engine's
// scripted tests, refsim's differential).
func (e *Engine) Offer(msg Message) {
	if msg.Len <= 0 {
		panic(fmt.Sprintf("engine: Offer of a %d-flit message", msg.Len))
	}
	if msg.Src < 0 || msg.Src >= e.net.Nodes || msg.Dst < 0 || msg.Dst >= e.net.Nodes {
		panic(fmt.Sprintf("engine: Offer with endpoints %d -> %d out of range", msg.Src, msg.Dst))
	}
	if msg.Created < e.now {
		msg.Created = e.now
	}
	e.pushQueue(msg.Src, msg)
}

// pushQueue appends a message to its node's FCFS source queue and does
// the bookkeeping shared by Offer and admitArrivals: the Generated
// count, the MaxQueue high-water mark, the sustainability watermark,
// and putting a node whose queue was empty up for injection.
func (e *Engine) pushQueue(node int, msg Message) {
	q := append(e.queues[node], msg)
	e.queues[node] = q
	if len(q) == 1 {
		e.waiting++
		e.tryNode(node)
	}
	e.queuedTotal++
	e.stats.Generated++
	if l := len(q); l > e.stats.MaxQueue {
		e.stats.MaxQueue = l
		if l > QueueLimit {
			e.stats.QueueExceeded = true
		}
	}
}

// tryNode puts a node on the list of queues the next allocate looks at.
// A node belongs there when the answer to "can its queue head inject"
// may have changed: its queue was empty and no longer is, or its
// injection channel was released with a message waiting (release). The
// list is scanned in ascending node order, so an append that breaks the
// order is noted and allocate sorts before its scan.
func (e *Engine) tryNode(node int) {
	if n := len(e.qlive); n > 0 && e.qlive[n-1] > node {
		e.qunsorted = true
	}
	e.qlive = append(e.qlive, node)
}

// admitArrivals moves generated messages whose creation time has come
// into their node's source queue. Per node, at most one message is
// prefetched from the Source; the prefetched messages live on a
// min-heap keyed by Created, so the per-cycle cost is proportional to
// the number of arrivals due, not to the network size.
func (e *Engine) admitArrivals() {
	if e.src == nil {
		return
	}
	if !e.arrInit {
		e.arrInit = true
		for node := 0; node < e.net.Nodes; node++ {
			e.prefetch(node)
		}
	}
	for e.arrivals.len() > 0 {
		node, created := e.arrivals.min()
		if created > e.now {
			break
		}
		msg := e.pending[node]
		e.pushQueue(node, msg)
		if e.now >= e.measureFrom {
			e.stats.GeneratedFlitsMeasured += int64(msg.Len)
		}
		e.arrivals.pop()
		e.prefetch(node)
	}
}

// prefetch pulls the node's next message from the Source onto the
// arrival heap, or retires the node if its source is exhausted.
func (e *Engine) prefetch(node int) {
	msg, ok := e.src.Next(node)
	if !ok {
		return
	}
	if msg.Len <= 0 {
		panic(fmt.Sprintf("engine: node %d generated a %d-flit message", node, msg.Len))
	}
	if msg.Src != node {
		panic(fmt.Sprintf("engine: source for node %d generated a message with Src %d", node, msg.Src))
	}
	e.pending[node] = msg
	e.arrivals.push(node, msg.Created)
}

// allocate performs the cycle's channel allocation: injections and
// head-flit route extension, in arbitration order over the routable
// heads (worms whose head is not yet done) rather than all live worms
// — a draining worm never re-enters the allocator.
//
// Nor is a contender that waits asked twice about the same channels.
// Channels are taken only here and freed only in release, so once a
// head has found every candidate owned or failed, or a queue head its
// injection channel, the answer stands until release frees a channel
// the contender could use — and release says so. A head that is flagged
// blocked tells the owner of each candidate which of its channels is
// waited for (wantOwners); releasing such a channel clears blocked for
// the heads at the switch it leaves, and releasing an injection channel
// puts its node back on qlive. What allocate looks at is therefore the
// heads and queues for which something changed (AllocateCounts reports
// the ratio). The head shuffle is still drawn over every routable head,
// so the random stream does not depend on who waits; a waiting head
// draws nothing from it either way. The walk over the shuffle stops
// once every unblocked head has been asked (unblocked counts them), and
// is not begun when none is.
func (e *Engine) allocate() {
	// Injections: the head of each queue on qlive claims the node's
	// injection channel when free. Injection channels are per-node, so
	// node order cannot bias contention, but worm ids must still be
	// assigned in node order so that oldest-first arbitration breaks
	// same-cycle ties exactly like the reference simulator. A node that
	// injects leaves the list with the rest: its next message waits for
	// the worm just made to release the channel.
	e.allocSlots += int64(e.waiting)
	e.allocVisits += int64(len(e.qlive))
	if len(e.qlive) > 0 {
		if e.qunsorted {
			sort.Ints(e.qlive)
			e.qunsorted = false
		}
		for _, node := range e.qlive {
			inj := e.net.Inject(node)
			if e.taken(inj) {
				continue
			}
			q := e.queues[node]
			w := e.newWorm(q[0])
			copy(q, q[1:])
			q = q[:len(q)-1]
			e.queues[node] = q
			e.queuedTotal--
			if len(q) == 0 {
				e.waiting--
			}
			// An injection channel's link is its own: no streaming worm
			// sleeps beside it.
			w.path = append(w.path, inj)
			w.cnt = append(w.cnt, 0)
			e.chanOwner[inj] = w.slot
		}
		e.qlive = e.qlive[:0]
	}

	// Head routing, in arbitration order over the routable heads. The
	// walk asks the unblocked ones and stops after the last of them: the
	// rest of the order is flagged heads alone, and nothing in the walk
	// clears a flag. With none unblocked it is not begun, and the shuffle
	// is drawn all the same.
	e.allocSlots += int64(len(e.heads))
	if e.unblocked == 0 {
		e.drawOrder(len(e.heads))
		return
	}
	left := e.unblocked
	e.order = e.headOrder()
	for _, wi := range e.order {
		if left == 0 {
			break
		}
		if e.blocked[wi] {
			continue
		}
		left--
		e.allocVisits++
		w := e.heads[wi]
		if w.cnt[len(w.path)-1] == 0 {
			continue // head flit not yet in the last channel
		}
		last := w.path[len(w.path)-1]
		if e.net.EndsAtNode(last) {
			// Head reached the ejection channel; path complete.
			e.retireHead(w)
			continue
		}
		// The full candidate set is one routing lookup: runs of count
		// channels, stride apart. Candidates enumerate in ascending id
		// order, which the random pick below depends on.
		layer, wire, dir := e.net.Address(last)
		base, count, runs, stride := e.fact.Lookup(layer, wire, dir, w.msg.Dst)
		e.cand = e.cand[:0]
		for r, b := runs, base; r > 0; r, b = r-1, b+stride {
			for c := b; c < b+count; c++ {
				if !e.taken(c) {
					e.cand = append(e.cand, c)
				}
			}
		}
		if len(e.cand) == 0 {
			// Blocked until a release at this switch, which charges the
			// cycles from this one on to its stage (credit).
			e.blocked[wi] = true
			e.unblocked--
			w.since = e.now - 1
			e.wantOwners(base, count, runs, stride)
			continue
		}
		pick := e.cand[0]
		if len(e.cand) > 1 {
			pick = e.cand[e.rng.Intn(len(e.cand))]
		}
		w.path = append(w.path, pick)
		w.cnt = append(w.cnt, 0)
		e.chanOwner[pick] = w.slot
		if e.sharedLinks {
			e.rouseSharers(w.path[len(w.path)-1:]) // pick's link may carry a streaming worm
		}
		if e.net.EndsAtNode(pick) {
			e.retireHead(w)
		} else {
			e.unpark(w) // room ahead of a parked worm
		}
	}
	// Drop the worms whose routing completed from the head set. The
	// removal is deferred so it cannot invalidate the shuffled indices
	// mid-iteration.
	for _, w := range e.retired {
		e.removeHead(w)
	}
	e.retired = e.retired[:0]
}

// wantOwners tells the owner of every candidate of a head that waits —
// runs of count channels from base, stride apart — that the release of
// that channel is waited for.
func (e *Engine) wantOwners(base, count, runs, stride int) {
	for ; runs > 0; runs, base = runs-1, base+stride {
		for c := base; c < base+count; c++ {
			e.want(c)
		}
	}
}

// want marks channel c in its owner's wanted set, if it has an owner.
func (e *Engine) want(c int) {
	o := e.owner(c)
	if o == nil {
		return
	}
	for i, pc := range o.path {
		if pc == c {
			o.wanted |= wantedBit(i)
			return
		}
	}
}

// wantedBit is the bit of worm.wanted that stands for path index i;
// indices past the set's width share its last bit.
func wantedBit(i int) uint64 { return 1 << min(i, 63) }

// owner returns the worm holding channel c, or nil when it is free.
func (e *Engine) owner(c int) *worm { return e.slab[e.chanOwner[c]] }

// taken reports whether channel c cannot be granted: a worm owns it or
// it has failed.
func (e *Engine) taken(c int) bool {
	return e.chanOwner[c] != 0 || (e.failed != nil && e.failed[c])
}

// retireHead marks a worm's path as complete and queues it for
// removal from the routable-head set. A parked worm starts to drain.
func (e *Engine) retireHead(w *worm) {
	w.done = true
	e.unpark(w)
	e.retired = append(e.retired, w)
}

// unpark puts a worm back on the advance sweep from this cycle. A
// parked worm may have had streaming worms asleep beside it on its
// links (see quiet); now that it may move again, they are roused.
func (e *Engine) unpark(w *worm) {
	wk := e.wake[w.index]
	if wk == 0 {
		return
	}
	if e.sharedLinks && wk == never {
		e.rouseSharers(w.path)
	}
	e.wake[w.index] = 0
	e.awake++
}

// removeHead swap-removes a worm from the routable-head set and
// unlinks it from the head age list (the list keeps the age order the
// swap-removal destroys).
func (e *Engine) removeHead(w *worm) {
	if w.headIdx < 0 {
		return
	}
	if !e.blocked[w.headIdx] {
		e.unblocked--
	}
	last := len(e.heads) - 1
	e.heads[w.headIdx] = e.heads[last]
	e.heads[w.headIdx].headIdx = w.headIdx
	e.heads = e.heads[:last]
	e.blocked[w.headIdx] = e.blocked[last]
	e.blocked = e.blocked[:last]
	w.headIdx = -1
	if w.headPrev != nil {
		w.headPrev.headNext = w.headNext
	} else {
		e.oldestHead = w.headNext
	}
	if w.headNext != nil {
		w.headNext.headPrev = w.headPrev
	} else {
		e.newestHead = w.headPrev
	}
	w.headPrev, w.headNext = nil, nil
}

// advance moves flits for every worm, head first, honoring per-link
// budgets. It returns whether any flit moved (including injections and
// consumptions), for the stall watchdog.
//
// The sweep runs over the full arbitration order, but a worm whose next
// move is known without looking at it sleeps through it: its wake slot
// — read before the worm itself is — names the first cycle that needs a
// visit. advanceWorm puts worms to sleep in two ways.
//
//   - Parked (wake = never): compact, head not routed through. Nothing
//     about the worm can change until the allocator extends its path or
//     retires its head, and both of those are calls on this worm, which
//     clear the slot.
//   - Streaming (wake = the cycle its source reaches its last flit):
//     routed through, compact, still injecting, and no other worm that
//     can move holds a channel on any of its links (quiet). Each cycle
//     moves one flit into each channel of its path and one out of the
//     last, and leaves the buffers reading the same, so only inj, del and
//     the channels' flit counts go stale — by now-1-since — and the visit
//     that ends the sleep (rouse), or a read of the counts (settle), adds
//     the difference back (credit). Stats never lag: the sweep credits
//     one injected and one delivered flit per sleeper per cycle in bulk. On
//     a shared link the sleep lasts only while the link stays quiet:
//     allocate rouses the sleeper when it grants a channel beside it or
//     wakes a parked worm beside it (rouseSharers, unpark), so that it
//     takes its turn in the drawn order again in the same cycle.
//
// The sweep itself is skipped when no worm is awake (awake counts the
// zero slots) and no streaming sleeper is due (minWake is the earliest
// slot of one, recomputed by every sweep): it would visit nobody. The
// sleepers are credited in bulk all the same, and the shuffle drawn.
func (e *Engine) advance() bool {
	// Per-link budgets are tracked by epoch stamp instead of a boolean
	// clear, so starting a cycle costs O(1) rather than O(links).
	e.epoch++
	moved := false
	// Sleepers that stream through this whole cycle: those asleep now,
	// less the ones the sweep wakes. A worm that falls asleep below has
	// made this cycle's move itself; it is in e.streaming, not here.
	streaming := e.streaming
	e.sweepSlots += int64(len(e.worms))
	if e.awake == 0 && e.minWake > e.now {
		// Every slot is past this cycle: the sweep would visit nobody.
		e.drawOrder(len(e.worms))
	} else {
		// The sweep passes every slot, so it leaves minWake exact: the
		// earliest it passes, or that of a worm falling asleep in it.
		next := int64(never)
		e.minWake = never
		visited := 0
		// Collect finished worms after the sweep: removing during the
		// shuffled iteration would invalidate indices.
		e.order = e.wormOrder()
		for _, wi := range e.order {
			wk := e.wake[wi]
			if wk > e.now {
				next = min(next, wk)
				continue
			}
			visited++
			w := e.worms[wi]
			if wk != 0 {
				e.rouse(w)
				streaming--
			}
			if e.advanceWorm(w) {
				moved = true
			}
			if w.del == w.msg.Len {
				e.finished = append(e.finished, w)
			}
		}
		e.minWake = min(e.minWake, next)
		e.sweepVisits += int64(visited)
	}
	if streaming > 0 {
		moved = true
		e.stats.InjectedFlits += int64(streaming)
		if e.now >= e.measureFrom {
			e.stats.DeliveredFlits += int64(streaming)
		}
	}
	for _, w := range e.finished {
		e.finish(w)
	}
	e.finished = e.finished[:0]
	return moved
}

// streams reports whether worms[i] is asleep streaming.
func (e *Engine) streams(i int) bool {
	wk := e.wake[i]
	return wk != 0 && wk != never
}

// credit brings a worm's lazily kept counts up to cycle upto. Each
// cycle a streaming sleeper (done) moved a flit into each channel of its
// path and one out of the last; each cycle a flagged head (not done)
// found every candidate taken, at its stage. A flag set in cycle t and
// cleared by a release in cycle r stands for r-t+1 such cycles.
func (e *Engine) credit(w *worm, upto int64) {
	k := upto - w.since
	w.since = upto
	if !w.done {
		if e.blockedByStage != nil {
			e.blockedByStage[e.net.StageEntered(w.path[len(w.path)-1])] += k
		}
		return
	}
	w.inj += int(k)
	w.del += int(k)
	if e.chanFlits != nil {
		for _, c := range w.path {
			e.chanFlits[c] += k
		}
	}
}

// rouse ends a streaming worm's sleep, bringing it up to date.
func (e *Engine) rouse(w *worm) {
	e.credit(w, e.now-1)
	e.wake[w.index] = 0
	e.streaming--
	e.awake++
}

// advanceWorm moves the flits of one worm by one cycle.
//
// A worm is compact when every buffer from its rear to its head is
// occupied and all but the rearmost are full: with lo the rearmost
// path index that can hold a flit (the tail once fully injected, else
// 0), inj-del == (n-1-lo)*depth + cnt[lo] and cnt[lo] >= 1 — each
// cnt is at most depth, so the sum can only reach that value with
// every buffer ahead of lo full. A compact worm moves as a train or
// not at all, and its move is known without walking the hops:
//
//   - head not routed through: the foremost buffer is full and not
//     draining, so every flit behind it is blocked;
//   - done, still injecting: one flit is consumed, every buffer passes
//     one flit forward and the source refills the rear — del and inj
//     step, the buffers read the same afterwards;
//   - done, fully injected: as above with nothing refilling the rear —
//     cnt[tail] steps down, and the tail channel is released when it
//     empties.
//
// Everything else — worms with a bubble, heads still streaming into a
// freshly acquired channel, a deep rear buffer with room for the next
// flit — takes the per-hop loop (advanceHops), which is also where a
// train goes when a shared link on its path is spent (claimTrain).
func (e *Engine) advanceWorm(w *worm) bool {
	n := len(w.path)
	injecting := w.inj < w.msg.Len
	lo := 0
	if !injecting {
		lo = w.tail
	}
	rear := w.cnt[lo]
	if rear == 0 || w.inj-w.del != (n-1-lo)*int(e.depth)+int(rear) {
		return e.advanceHops(w, lo)
	}
	if !w.done {
		if injecting && rear < e.depth {
			return e.advanceHops(w, lo) // nothing ahead moves, but the rear buffer has room
		}
		e.wake[w.index] = never // parked until allocate moves its head
		e.awake--
		return false
	}
	// With no other worm that can move this cycle on any of its links, a
	// train move needs no link stamps: no other worm sees it. Where every
	// link is its own that always holds. Where links are shared it is
	// checked (quiet) only for a worm that will go on to sleep streaming,
	// where it saves the visits of the cycles to come; any other worm
	// just stamps (claimTrain).
	unseen := !e.sharedLinks || injecting && w.msg.Len-w.inj > 2 && e.quiet(w)
	if !e.claimTrain(w, lo, injecting, unseen) {
		return e.advanceHops(w, lo)
	}
	w.del++
	if e.now >= e.measureFrom {
		e.stats.DeliveredFlits++
	}
	if injecting {
		w.inj++
		e.stats.InjectedFlits++
		left := w.msg.Len - w.inj
		if left == 0 {
			w.tail = 0 // cnt[0] >= 1: nothing to release yet
		} else if left > 1 && unseen {
			// The next left-1 cycles repeat this one. Sleep through
			// them and wake for the last flit's injection, which
			// sets the tail.
			w.since = e.now
			e.wake[w.index] = e.now + int64(left)
			e.minWake = min(e.minWake, e.now+int64(left))
			e.streaming++
			e.awake--
		}
		return true
	}
	w.cnt[lo] = rear - 1
	if rear == 1 {
		e.release(w, lo)
		w.tail++
	}
	return true
}

// quiet reports whether no worm but w can spend a link of w's path: each
// other channel of each of those links is unowned or held by a parked
// worm. A flit only ever moves into a channel its worm holds, and a
// parked worm moves none until allocate extends its path or retires its
// head — so over quiet links w's train can never lose a link to another
// worm, whatever the drawn order, and w may stream asleep without
// stamping them. Links stop being quiet only in allocate: by the grant
// of another channel on one or by the wake of a parked holder (unpark),
// and both rouse w before the cycle's sweep (rouseSharers).
func (e *Engine) quiet(w *worm) bool {
	for _, c := range w.path {
		base, count := e.net.LinkChannels(int(e.chanLink[c]))
		for s := base; s < base+count; s++ {
			if o := e.chanOwner[s]; o != 0 && o != w.slot && e.wake[e.slab[o].index] != never {
				return false
			}
		}
	}
	return true
}

// rouseSharers ends the sleep of every streaming worm that holds a
// channel on the link of one of chans, whose holder may move a flit over
// it from this cycle on (see quiet). Callers skip it where links are
// private, so that it costs nothing there.
func (e *Engine) rouseSharers(chans []int) {
	if e.streaming == 0 {
		return
	}
	for _, c := range chans {
		base, count := e.net.LinkChannels(int(e.chanLink[c]))
		for s := base; s < base+count; s++ {
			if o := e.owner(s); o != nil && e.streams(o.index) {
				e.rouse(o)
			}
		}
	}
}

// claimTrain does the per-hop bookkeeping of a train move: the hops
// that carry a flit are those into path[lo+1:], plus the injection
// hop into path[0] while the source still feeds the worm (then lo is
// 0). Unless the move is unseen, links are shared, and the per-hop loop
// would stop a flit at a link another worm already used this cycle and
// open a bubble, so the train may move only if every one of its links
// is still unspent: it claims all of them, or claims none and reports
// false, leaving the worm to the per-hop loop. A path crosses each link
// at most once (one hop per layer and direction), so checking before
// stamping cannot miss a conflict within the worm itself.
func (e *Engine) claimTrain(w *worm, lo int, injecting, unseen bool) bool {
	hops := w.path[lo+1:]
	if injecting {
		hops = w.path
	}
	if !unseen {
		for _, c := range hops {
			if e.linkMark[e.chanLink[c]] == e.epoch {
				return false
			}
		}
		for _, c := range hops {
			e.linkMark[e.chanLink[c]] = e.epoch
		}
	}
	if e.chanFlits != nil {
		for _, c := range hops {
			e.chanFlits[c]++
		}
	}
	return true
}

// advanceHops is the general advance: it moves the flits of one worm
// front-to-back over path[lo:] (buffers behind lo are empty):
// consumption at the destination, then in-network hops, then injection
// of the next flit from the source, and finally release of channels
// the tail has fully vacated.
func (e *Engine) advanceHops(w *worm, lo int) bool {
	moved := false
	n := len(w.path)
	for i := n - 1; i >= lo; i-- {
		if w.cnt[i] == 0 {
			continue
		}
		if i == n-1 {
			// Foremost buffer. Consume one flit per cycle once this
			// is the ejection channel.
			if w.done {
				w.cnt[i]--
				w.del++
				moved = true
				if e.now >= e.measureFrom {
					e.stats.DeliveredFlits++
				}
			}
			continue
		}
		next := w.path[i+1]
		if w.cnt[i+1] >= e.depth || !e.claimLink(next) {
			continue
		}
		w.cnt[i+1]++
		w.cnt[i]--
		if e.chanFlits != nil {
			e.chanFlits[next]++
		}
		moved = true
	}
	// Injection of the next flit into path[0].
	if w.inj < w.msg.Len && w.cnt[0] < e.depth && e.claimLink(w.path[0]) {
		w.cnt[0]++
		if e.chanFlits != nil {
			e.chanFlits[w.path[0]]++
		}
		w.inj++
		e.stats.InjectedFlits++
		moved = true
	}
	// Release channels the worm has fully vacated: once every flit is
	// injected, the tail is the rearmost buffered flit, and channels
	// behind it are free for other worms.
	if w.inj == w.msg.Len {
		if w.tail < 0 {
			w.tail = 0
		}
		for w.tail < n && w.cnt[w.tail] == 0 {
			e.release(w, w.tail)
			w.tail++
		}
	}
	return moved
}

// claimLink spends this cycle's flit budget of the link under channel
// c, or reports that another channel of the link already did.
func (e *Engine) claimLink(c int) bool {
	if !e.sharedLinks {
		return true
	}
	l := e.chanLink[c]
	if e.linkMark[l] == e.epoch {
		return false
	}
	e.linkMark[l] = e.epoch
	return true
}

// wormOrder returns the indices of the active worms in this cycle's
// arbitration order. Oldest-first order is read off the incrementally
// maintained age list in O(W) — no per-cycle sort.
func (e *Engine) wormOrder() []int {
	if e.arb == ArbitrateOldestFirst {
		e.order = e.order[:0]
		for w := e.oldest; w != nil; w = w.ageNext {
			e.order = append(e.order, w.index)
		}
		return e.order
	}
	return e.rng.Perm(e.order, len(e.worms))
}

// drawOrder draws the shuffle of n contenders that a cycle with none due
// skips walking, so that the random stream does not depend on who is
// due. Oldest-first arbitration draws nothing, and its order is not read.
func (e *Engine) drawOrder(n int) {
	if e.arb != ArbitrateOldestFirst {
		e.order = e.rng.Perm(e.order, n)
	}
}

// headOrder returns the indices of the routable heads in this cycle's
// arbitration order. Restricting the shuffle to heads means the
// random stream scales with contenders, not with live worms.
func (e *Engine) headOrder() []int {
	if e.arb == ArbitrateOldestFirst {
		e.order = e.order[:0]
		for w := e.oldestHead; w != nil; w = w.headNext {
			e.order = append(e.order, w.headIdx)
		}
		return e.order
	}
	return e.rng.Perm(e.order, len(e.heads))
}

// release frees the channel at path index i, held until the tail
// passed it, and wakes whoever waits for it (see allocate). Index 0 is
// the injection channel: its node is put up for injection if a message
// waits there. Any other channel leaves a switch, and the heads it is a
// candidate for stand in that switch's input channels: their owners are
// looked up there, so no list of waiters is kept. An owner whose head is
// elsewhere along its path, or waits for another output of the switch,
// is woken for nothing and blocks again. The lookup inverts a wiring and
// reads an owner per input channel, cache misses all on a large network,
// so it runs only if a head has said it waits for this channel
// (wantOwners); most releases free a channel nobody asked for and stop
// at the worm.
func (e *Engine) release(w *worm, i int) {
	c := w.path[i]
	if e.chanOwner[c] != w.slot {
		panic(fmt.Sprintf("engine: releasing channel %d not owned by worm %d", c, w.id))
	}
	e.chanOwner[c] = 0
	if i == 0 {
		if src := w.msg.Src; len(e.queues[src]) > 0 {
			e.tryNode(src)
		}
		return
	}
	if w.wanted&wantedBit(i) == 0 {
		return
	}
	sw := e.net.ChannelAt(c).From.Switch
	for _, side := range [...]topology.Side{topology.Left, topology.Right} {
		for offset := 0; offset < e.net.K(); offset++ {
			base, count := e.net.PortInputs(sw, side, offset)
			for in := base; in < base+count; in++ {
				if o := e.owner(in); o != nil && o.headIdx >= 0 && e.blocked[o.headIdx] {
					e.credit(o, e.now)
					e.blocked[o.headIdx] = false
					e.unblocked++
				}
			}
		}
	}
}

// finish records statistics for a fully delivered worm and recycles
// it. All channels must already have been released by tail passage.
func (e *Engine) finish(w *worm) {
	for _, c := range w.path {
		if e.chanOwner[c] == w.slot {
			panic(fmt.Sprintf("engine: worm %d finished still owning channel %d", w.id, c))
		}
	}
	e.stats.Delivered++
	if w.msg.Created >= e.measureFrom {
		lat := e.now + 1 - w.msg.Created
		e.stats.MeasuredMsgs++
		e.stats.LatencySum += lat
		e.stats.LatencySumSq += float64(lat) * float64(lat)
		if lat < e.stats.LatencyMin {
			e.stats.LatencyMin = lat
		}
		if lat > e.stats.LatencyMax {
			e.stats.LatencyMax = lat
		}
		if e.latencyHist != nil {
			e.latencyHist.Add(float64(lat))
		}
		e.recordBatch(lat)
	}
	if e.onDeliver != nil {
		e.onDeliver(w.msg, e.now+1)
	}
	// Swap-remove from the active set (and, defensively, from the
	// head set — a finished worm is always done and already out), and
	// unlink from the age list.
	e.removeHead(w)
	e.awake-- // visited this cycle with nothing left to inject: awake
	lastIdx := len(e.worms) - 1
	e.worms[w.index] = e.worms[lastIdx]
	e.worms[w.index].index = w.index
	e.worms = e.worms[:lastIdx]
	e.wake[w.index] = e.wake[lastIdx]
	e.wake = e.wake[:lastIdx]
	if w.agePrev != nil {
		w.agePrev.ageNext = w.ageNext
	} else {
		e.oldest = w.ageNext
	}
	if w.ageNext != nil {
		w.ageNext.agePrev = w.agePrev
	} else {
		e.newest = w.agePrev
	}
	w.agePrev, w.ageNext = nil, nil
	w.path = w.path[:0]
	w.cnt = w.cnt[:0]
	e.freeList = append(e.freeList, w)
}

// newWorm takes a worm from the free list, or else gives the next slab
// slot the worm a recycled engine left parked there (see reset) or a
// new one, and registers it in both the active set and the
// routable-head set.
func (e *Engine) newWorm(msg Message) *worm {
	var w *worm
	if n := len(e.freeList); n > 0 {
		w = e.freeList[n-1]
		e.freeList = e.freeList[:n-1]
		*w = worm{path: w.path, cnt: w.cnt, slot: w.slot}
	} else if n := len(e.slab); n < cap(e.slab) && e.slab[:n+1][n] != nil {
		w = e.slab[:n+1][n]
		*w = worm{path: w.path[:0], cnt: w.cnt[:0], slot: int32(n)}
		e.slab = e.slab[:n+1]
	} else {
		w = &worm{slot: int32(len(e.slab))}
		e.slab = append(e.slab, w)
	}
	w.msg = msg
	w.id = e.nextID
	e.nextID++
	w.tail = -1
	w.index = len(e.worms)
	e.worms = append(e.worms, w)
	e.wake = append(e.wake, 0)
	e.awake++
	w.headIdx = len(e.heads)
	e.heads = append(e.heads, w)
	e.blocked = append(e.blocked, false)
	e.unblocked++
	// Tail insertion into both age lists: the fresh worm carries the
	// largest id, so appending preserves ascending-id order.
	w.agePrev = e.newest
	if e.newest != nil {
		e.newest.ageNext = w
	} else {
		e.oldest = w
	}
	e.newest = w
	w.headPrev = e.newestHead
	if e.newestHead != nil {
		e.newestHead.headNext = w
	} else {
		e.oldestHead = w
	}
	e.newestHead = w
	return w
}

// CheckInvariants verifies internal consistency (channel ownership and
// buffer occupancy agree with worm state). It is meant for tests and
// the deadlock watchdog; it returns the first violation or nil.
func (e *Engine) CheckInvariants() error {
	occCount := make(map[int]int)
	ownCount := make(map[int]*worm)
	// The map iterations below are diagnostic-only: any violation
	// aborts the check, and which of several violations is reported
	// first never feeds back into simulation state.
	if len(e.wake) != len(e.worms) {
		return fmt.Errorf("%d wake slots for %d worms", len(e.wake), len(e.worms))
	}
	streaming, awake, earliest := 0, 0, int64(never)
	for i, w := range e.worms {
		if w.index != i {
			return fmt.Errorf("worm %d: index %d, slot %d", w.id, w.index, i)
		}
		if w.slot <= 0 || int(w.slot) >= len(e.slab) || e.slab[w.slot] != w {
			return fmt.Errorf("worm %d: slab slot %d does not hold it", w.id, w.slot)
		}
		if len(w.path) != len(w.cnt) {
			return fmt.Errorf("worm %d: path/cnt length mismatch", w.id)
		}
		inFlight := 0
		for i, c := range w.path {
			if w.cnt[i] > e.depth {
				return fmt.Errorf("worm %d: channel %d holds %d flits, depth %d", w.id, c, w.cnt[i], e.depth)
			}
			if w.cnt[i] > 0 {
				occCount[c] += int(w.cnt[i])
				inFlight += int(w.cnt[i])
			}
			if e.chanOwner[c] == w.slot {
				ownCount[c] = w
			}
		}
		if got := w.inj - w.del; got != inFlight {
			return fmt.Errorf("worm %d: inj-del = %d but %d flits buffered", w.id, got, inFlight)
		}
		if w.inj > w.msg.Len || w.del > w.inj {
			return fmt.Errorf("worm %d: inconsistent counters inj=%d del=%d len=%d", w.id, w.inj, w.del, w.msg.Len)
		}
		if err := e.checkAsleep(w); err != nil {
			return fmt.Errorf("worm %d: %w", w.id, err)
		}
		switch wk := e.wake[i]; {
		case wk == 0:
			awake++
		case wk != never:
			streaming++
			earliest = min(earliest, wk)
		}
	}
	if streaming != e.streaming {
		return fmt.Errorf("%d worms asleep streaming, engine counts %d", streaming, e.streaming)
	}
	if awake != int(e.awake) {
		return fmt.Errorf("%d worms awake, engine counts %d", awake, e.awake)
	}
	// Every sweep leaves minWake exact, and only a sweep puts a worm to
	// sleep streaming or runs in the cycle a sleeper is roused.
	if len(e.worms) > 0 && earliest != e.minWake {
		return fmt.Errorf("the earliest streaming sleeper wakes at cycle %d, engine says %d", earliest, e.minWake)
	}
	for c, cnt := range occCount {
		if cnt > int(e.depth) {
			return fmt.Errorf("channel %d buffers %d flits, depth %d", c, cnt, e.depth)
		}
	}
	for c := range e.chanOwner {
		if o := e.owner(c); o != nil && ownCount[c] != o {
			return fmt.Errorf("channel %d owned by a worm that does not list it", c)
		}
	}
	// The intrusive age lists must thread exactly the live worms (and
	// the routable heads) in strictly ascending id order — this is
	// what lets the oldest-first arbitration skip sorting.
	if err := checkAgeList(e.oldest, e.newest, len(e.worms), "age",
		func(w *worm) *worm { return w.ageNext }); err != nil {
		return err
	}
	if err := checkAgeList(e.oldestHead, e.newestHead, len(e.heads), "head-age",
		func(w *worm) *worm { return w.headNext }); err != nil {
		return err
	}
	return e.checkWaiting()
}

// checkWaiting re-derives what allocate does not look at: every head it
// skips and every queue it leaves off its scan must be unable to claim
// anything.
func (e *Engine) checkWaiting() error {
	if len(e.blocked) != len(e.heads) {
		return fmt.Errorf("%d blocked flags for %d heads", len(e.blocked), len(e.heads))
	}
	unblocked := 0
	for i, w := range e.heads {
		if w.headIdx != i {
			return fmt.Errorf("worm %d: headIdx %d, slot %d", w.id, w.headIdx, i)
		}
		if !e.blocked[i] {
			unblocked++
			continue
		}
		last := w.path[len(w.path)-1]
		if w.done || w.cnt[len(w.cnt)-1] == 0 || w.since >= e.now {
			return fmt.Errorf("worm %d: head skipped with done=%v cnt=%v since cycle %d", w.id, w.done, w.cnt, w.since)
		}
		// release looks for waiters at the switch a freed channel
		// leaves, so that is where every candidate must start.
		at := e.net.ChannelAt(last).To.Switch
		check := func(c int) error {
			if !e.taken(c) || e.net.ChannelAt(c).From.Switch != at {
				return fmt.Errorf("worm %d: head skipped at channel %d (switch %d) with candidate %d free or leaving another switch", w.id, last, at, c)
			}
			if o := e.owner(c); o != nil && o.wanted&wantedBit(slices.Index(o.path, c)) == 0 {
				return fmt.Errorf("worm %d: head skipped at channel %d, but worm %d does not know its channel %d is waited for", w.id, last, o.id, c)
			}
			return nil
		}
		layer, wire, dir := e.net.Address(last)
		base, count, runs, stride := e.fact.Lookup(layer, wire, dir, w.msg.Dst)
		for ; runs > 0; runs, base = runs-1, base+stride {
			for c := base; c < base+count; c++ {
				if err := check(c); err != nil {
					return err
				}
			}
		}
	}
	if unblocked != int(e.unblocked) {
		return fmt.Errorf("%d heads unblocked, engine counts %d", unblocked, e.unblocked)
	}
	listed := make([]bool, e.net.Nodes)
	for _, node := range e.qlive {
		if listed[node] || len(e.queues[node]) == 0 {
			return fmt.Errorf("node %d is up for injection twice or with an empty queue", node)
		}
		listed[node] = true
	}
	waiting := 0
	for node, q := range e.queues {
		if len(q) == 0 {
			continue
		}
		waiting++
		if !listed[node] && !e.taken(e.net.Inject(node)) {
			return fmt.Errorf("node %d: queued message not up for injection though channel %d is free", node, e.net.Inject(node))
		}
	}
	if waiting != e.waiting {
		return fmt.Errorf("%d non-empty queues, engine counts %d", waiting, e.waiting)
	}
	return nil
}

// checkAsleep verifies that a sleeping worm is in the state its wake
// slot claims, read off the buffers rather than the inj/del arithmetic
// advanceWorm uses: nothing but the sweep's bulk accounting may be
// pending on it.
func (e *Engine) checkAsleep(w *worm) error {
	wk := e.wake[w.index]
	if wk == 0 {
		return nil
	}
	injecting := w.inj < w.msg.Len
	lo := 0
	if !injecting {
		lo = w.tail
	}
	if lo < 0 || lo >= len(w.cnt) || w.cnt[lo] == 0 {
		return fmt.Errorf("asleep with an empty rear buffer")
	}
	for _, c := range w.cnt[lo+1:] {
		if c != e.depth {
			return fmt.Errorf("asleep with a bubble: cnt=%v", w.cnt)
		}
	}
	if wk == never {
		if w.done || (injecting && w.cnt[0] < e.depth) {
			return fmt.Errorf("parked but able to move: done=%v cnt=%v", w.done, w.cnt)
		}
		return nil
	}
	switch {
	case !w.done || !injecting:
		return fmt.Errorf("asleep streaming with done=%v inj=%d len=%d", w.done, w.inj, w.msg.Len)
	case w.since >= e.now || wk < e.now:
		return fmt.Errorf("asleep since cycle %d until %d at cycle %d", w.since, wk, e.now)
	case wk != w.since+int64(w.msg.Len-w.inj):
		return fmt.Errorf("wakes at cycle %d, but its %d flits run out at %d", wk, w.msg.Len-w.inj, w.since+int64(w.msg.Len-w.inj))
	}
	// No worm that can move may hold a channel on any link of its path:
	// each link's channels are read off the network, not off chanLink.
	for _, c := range w.path {
		l := e.net.LinkOf(c)
		base, count := e.net.LinkChannels(l)
		for s := base; s < base+count; s++ {
			if o := e.owner(s); o != nil && o != w && e.wake[o.index] != never {
				return fmt.Errorf("asleep streaming on link %d beside worm %d, which can move", l, o.id)
			}
		}
	}
	return nil
}

// checkAgeList verifies one intrusive list: length, tail endpoint and
// strictly ascending ids.
func checkAgeList(head, tail *worm, want int, name string, next func(*worm) *worm) error {
	n := 0
	var last *worm
	for w := head; w != nil; w = next(w) {
		if last != nil && w.id <= last.id {
			return fmt.Errorf("%s list out of order: id %d follows %d", name, w.id, last.id)
		}
		last = w
		if n++; n > want {
			break
		}
	}
	if n != want {
		return fmt.Errorf("%s list has %d entries, want %d", name, n, want)
	}
	if last != tail {
		return fmt.Errorf("%s list tail pointer does not match the last entry", name)
	}
	return nil
}
