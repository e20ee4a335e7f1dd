// Package refsim is a deliberately slow, obviously-correct reference
// implementation of the wormhole semantics simulated by package
// engine, used for differential testing. It tracks every flit as an
// individual object and recomputes all switch state from scratch each
// cycle, trading all performance for transparency.
//
// The reference covers the deterministic fragment of the model:
// single-candidate routing (TMINs, or any network where the router
// returns exactly one candidate) with oldest-first arbitration and
// single-flit buffers. Within that fragment the engine must agree
// with it cycle for cycle; the differential tests beside it assert
// exact equality of every message's delivery time. It routes through
// graphtest's Routers over the struct form, so the differential also
// checks the engine's factored routing against a specification that
// shares none of its code. The package is test-only: nothing imports
// it.
package refsim

import (
	"fmt"
	"sort"

	"minsim/internal/topology"
	"minsim/internal/topology/graphtest"
)

// Message mirrors engine.Message.
type Message struct {
	Src, Dst int
	Len      int
	Created  int64
}

// Delivery records one completed message.
type Delivery struct {
	Message
	Completed int64 // cycle after which the tail was consumed
}

// flit is one tracked flit.
type flit struct {
	worm *refWorm
	seq  int // 0 = head, Len-1 = tail
}

// refWorm is a packet in flight.
type refWorm struct {
	id      int64
	msg     Message
	path    []int // allocated channels
	at      map[int]*flit
	where   map[*flit]int // flit -> path index
	inj     int
	del     int
	done    bool
	arrived int64
}

// Sim is the reference simulator.
type Sim struct {
	net    *graphtest.Graph
	router graphtest.Router
	now    int64

	owner map[int]*refWorm // channel -> owning worm
	buf   map[int]*flit    // channel -> buffered flit

	queues [][]Message
	worms  []*refWorm
	nextID int64

	Deliveries []Delivery
}

// New builds a reference simulator over the network. The router must
// be single-candidate for the run to be meaningful (this is asserted
// at routing time).
func New(net *topology.Network) *Sim {
	s := &Sim{
		net:    graphtest.New(net),
		router: graphtest.RouterFor(net),
		owner:  map[int]*refWorm{},
		buf:    map[int]*flit{},
		queues: make([][]Message, net.Nodes),
	}
	return s
}

// Offer queues a message at its source.
func (s *Sim) Offer(msg Message) {
	if msg.Len <= 0 || msg.Src == msg.Dst {
		panic(fmt.Sprintf("refsim: bad message %+v", msg))
	}
	s.queues[msg.Src] = append(s.queues[msg.Src], msg)
}

// Done reports whether all offered traffic has been delivered.
func (s *Sim) Done() bool {
	if len(s.worms) > 0 {
		return false
	}
	for _, q := range s.queues {
		if len(q) > 0 {
			return false
		}
	}
	return true
}

// Run steps until done or maxCycles elapse; returns whether done.
func (s *Sim) Run(maxCycles int64) bool {
	for i := int64(0); i < maxCycles; i++ {
		if s.Done() {
			return true
		}
		s.Step()
	}
	return s.Done()
}

// Step simulates one cycle with the same phase structure as the
// engine: injections and head allocation (oldest first), then flit
// advancement (front to back per worm, oldest worm first), then
// consumption bookkeeping.
func (s *Sim) Step() {
	// Injection: head of each queue claims the injection channel when
	// its Created time has come and the channel is free.
	for node := 0; node < s.net.Nodes; node++ {
		q := s.queues[node]
		if len(q) == 0 || q[0].Created > s.now {
			continue
		}
		inj := s.net.Inject[node]
		if s.owner[inj] != nil {
			continue
		}
		w := &refWorm{
			id:    s.nextID,
			msg:   q[0],
			at:    map[int]*flit{},
			where: map[*flit]int{},
		}
		s.nextID++
		s.queues[node] = q[1:]
		w.path = append(w.path, inj)
		s.owner[inj] = w
		s.worms = append(s.worms, w)
	}

	// Allocation, oldest worm first.
	ordered := append([]*refWorm(nil), s.worms...)
	sort.Slice(ordered, func(a, b int) bool { return ordered[a].id < ordered[b].id })
	for _, w := range ordered {
		if w.done {
			continue
		}
		last := w.path[len(w.path)-1]
		head := s.buf[last]
		if head == nil || head.worm != w || head.seq != 0 {
			continue // head flit not at the frontier
		}
		ch := &s.net.Channels[last]
		if ch.To.IsNode() {
			w.done = true
			continue
		}
		cands := s.router.Candidates(nil, s.net, ch, w.msg.Dst)
		if len(cands) != 1 {
			panic(fmt.Sprintf("refsim: router returned %d candidates; the reference covers single-candidate routing only", len(cands)))
		}
		c := cands[0]
		if s.owner[c] != nil {
			continue // blocked
		}
		w.path = append(w.path, c)
		s.owner[c] = w
		if s.net.Channels[c].To.IsNode() {
			w.done = true
		}
	}

	// Advance, oldest worm first, front to back within the worm.
	var finished []*refWorm
	for _, w := range ordered {
		s.advance(w)
		if w.del == w.msg.Len {
			finished = append(finished, w)
		}
	}
	for _, w := range finished {
		s.finish(w)
	}
	s.now++
}

func (s *Sim) advance(w *refWorm) {
	n := len(w.path)
	for i := n - 1; i >= 0; i-- {
		c := w.path[i]
		f := s.buf[c]
		if f == nil || f.worm != w {
			continue
		}
		if i == n-1 {
			if w.done {
				// Consume at the destination.
				delete(s.buf, c)
				delete(w.at, c)
				delete(w.where, f)
				w.del++
				if f.seq == w.msg.Len-1 {
					s.release(w, i)
				}
			}
			continue
		}
		next := w.path[i+1]
		if s.buf[next] != nil {
			continue
		}
		delete(s.buf, c)
		s.buf[next] = f
		w.where[f] = i + 1
		if f.seq == w.msg.Len-1 {
			s.release(w, i)
		}
	}
	// Inject the next flit.
	if w.inj < w.msg.Len && s.buf[w.path[0]] == nil {
		f := &flit{worm: w, seq: w.inj}
		s.buf[w.path[0]] = f
		w.where[f] = 0
		w.inj++
	}
}

// release frees path channels up to and including index i (the tail
// has passed them).
func (s *Sim) release(w *refWorm, i int) {
	for j := 0; j <= i; j++ {
		if s.owner[w.path[j]] == w {
			delete(s.owner, w.path[j])
		}
	}
}

func (s *Sim) finish(w *refWorm) {
	for _, c := range w.path {
		if s.owner[c] == w {
			panic("refsim: finished worm still owns a channel")
		}
	}
	s.Deliveries = append(s.Deliveries, Delivery{Message: w.msg, Completed: s.now + 1})
	for i, ww := range s.worms {
		if ww == w {
			s.worms = append(s.worms[:i], s.worms[i+1:]...)
			break
		}
	}
}
