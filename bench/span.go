package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the span
// that caused it (0 = none); spans of one unit share Unit.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Unit   int    `json:"unit"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op, so the timed path carries
// no recording cost.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	unit  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) setUnit(u int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.unit = u
	t.mu.Unlock()
}

// begin opens a span now and returns its id.
func (t *tracer) begin(name, layer string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Layer: layer, Start: now, End: now, Parent: parent, Unit: t.unit})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval is already known — the seams that
// only see events (plan progress, a worker's HTTP calls) reconstruct
// their spans after the fact.
func (t *tracer) add(name, layer string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Layer: layer,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Parent: parent, Unit: t.unit})
	return len(t.spans)
}

// reparent moves every span of the current unit that satisfies pick
// and starts inside [start, end] under parent.
func (t *tracer) reparent(parent int, start, end time.Time, pick func(span) bool) {
	if t == nil {
		return
	}
	lo, hi := start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		s := &t.spans[i]
		if s.Unit == t.unit && s.ID != parent && s.Start >= lo && s.Start <= hi && pick(*s) {
			s.Parent = parent
		}
	}
}

// earliest returns the start of the first span of the current unit
// that satisfies pick.
func (t *tracer) earliest(pick func(span) bool) (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Unit == t.unit && pick(s) {
			return t.epoch.Add(time.Duration(s.Start)), true
		}
	}
	return time.Time{}, false
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// selfTimes returns each span's self time: its duration minus the
// part of its interval that its child spans cover (children may
// overlap each other, so it is the union that is subtracted).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][][2]int64{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			children[p.ID] = append(children[p.ID], [2]int64{lo, hi})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - unionLen(children[s.ID])
	}
	return self
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, v := range iv {
		if i == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// descendants keeps the spans that are one of roots or descend from
// one; spans recorded outside any unit (a worker's idle polls while
// the fleet is stood up) have no such ancestor and drop out.
func descendants(spans []span, roots []int) []span {
	under := make(map[int]bool, len(spans))
	for _, id := range roots {
		under[id] = true
	}
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var reaches func(id, hops int) bool
	reaches = func(id, hops int) bool {
		if under[id] {
			return true
		}
		s, ok := byID[id]
		if !ok || hops > len(spans) {
			return false
		}
		if reaches(s.Parent, hops+1) {
			under[id] = true
		}
		return under[id]
	}
	var kept []span
	for _, s := range spans {
		if reaches(s.ID, 0) {
			kept = append(kept, s)
		}
	}
	return kept
}

// layerShares sums self time by layer and returns each layer's share
// of all self time recorded, so the shares add to one even where
// spans of one unit ran in parallel.
func layerShares(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byLayer := map[string]int64{}
	var total int64
	for _, s := range spans {
		byLayer[s.Layer] += self[s.ID]
		total += self[s.ID]
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for l, ns := range byLayer {
		out[l] = float64(ns) / float64(total)
	}
	return out
}
