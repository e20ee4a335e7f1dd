package simrun

import (
	"cmp"
	"context"
	"fmt"

	"minsim/internal/metrics"
)

// trackTol is the delivered-vs-offered slack of the saturation
// search: a load counts as sustained only when delivered throughput
// is within this fraction of the offered load (the standard
// "accepted tracks offered" criterion), in addition to the paper's
// source-queue watermark. The watermark alone needs very long windows
// to trip because the paper's messages are huge (mean 516 flits).
const trackTol = 0.08

// Saturation is one searched cell: the highest sustained load found and
// the measurement taken there, or the error that ended the cell's
// search (a probe that failed, or a lower bound already unsustainable —
// Point then holds that probe).
type Saturation struct {
	Load  float64
	Point metrics.Point
	Err   error
}

// search is one cell's bisection state: next is the load of its next
// probe, h that probe's handle, and the first two probes check the
// bracket's ends.
type search struct {
	lo, hi, next float64
	h            *Handle
	probes       int
	done         bool
}

// FindSaturation locates the paper's "maximum sustainable network
// throughput" of every base spec by bisecting on offered load: the
// highest load in [lo, hi] whose point keeps every source queue within
// the watermark AND delivers within trackTol of the offered load. tol is
// the load resolution at which bisection stops. A whole bracket that is
// sustainable reports hi.
//
// The cells advance in lockstep: each round is one Plan holding every
// live cell's next probe, executed with opts, so probes are ordinary
// keyed RunSpecs (base with Load set) that the store serves, the plan
// deduplicates across equal cells, the pool or a Dispatcher runs, and
// ctx cancels within one cancelQuantum leg. Per-cell failures land in
// that cell's Saturation.Err; the error return is a bad bracket or ctx's
// error. The Counters sum every round's.
func FindSaturation(ctx context.Context, bases []RunSpec, lo, hi, tol float64, opts Options) ([]Saturation, Counters, error) {
	var total Counters
	if lo < 0 || hi <= lo || tol <= 0 {
		return nil, total, fmt.Errorf("simrun: bad saturation bracket [%v, %v] tol %v", lo, hi, tol)
	}
	out := make([]Saturation, len(bases))
	cells := make([]search, len(bases))
	for i := range cells {
		cells[i] = search{lo: lo, hi: hi, next: lo}
	}
	for {
		plan := NewPlan()
		for i := range cells {
			if !cells[i].done {
				rs := bases[i]
				rs.Load = cells[i].next
				cells[i].h = plan.AddSpec(rs)
			}
		}
		if plan.requested == 0 {
			return out, total, nil
		}
		if err := plan.Execute(ctx, opts); err != nil {
			return nil, total, err
		}
		c := plan.Counters()
		total.Requested += c.Requested
		total.Unique += c.Unique
		total.Cached += c.Cached
		total.Executed += c.Executed
		total.Failed += c.Failed
		total.Done += c.Done
		for i := range cells {
			if cells[i].done {
				continue
			}
			pts, err := cells[i].h.Points()
			if err != nil {
				out[i].Err, cells[i].done = err, true
				continue
			}
			cells[i].step(pts[0], tol, &out[i])
		}
	}
}

// step folds the probe at s.next into the cell's search and picks the
// next probe, or ends the search in res: lo first (it must be
// sustainable), then hi (if sustainable, it is the answer), then
// midpoints until the bracket is within tol or, at a tol below float
// spacing, until lo and hi are adjacent floats and the midpoint rounds
// onto one of them.
func (s *search) step(p metrics.Point, tol float64, res *Saturation) {
	p.Sustainable = p.Sustainable && p.Throughput >= (1-trackTol)*cmp.Or(p.OfferedMeasured, p.Offered)
	s.probes++
	switch {
	case s.probes == 1 && !p.Sustainable:
		res.Point, res.Err, s.done = p, fmt.Errorf("simrun: lower bound %v is already unsustainable", s.lo), true
	case s.probes == 2 && p.Sustainable:
		res.Load, res.Point, s.done = s.hi, p, true
	case p.Sustainable:
		s.lo, res.Load, res.Point = s.next, s.next, p
	default:
		s.hi = s.next
	}
	switch mid := (s.lo + s.hi) / 2; {
	case s.done:
	case s.probes == 1:
		s.next = s.hi
	case s.hi-s.lo > tol && mid != s.lo && mid != s.hi:
		s.next = mid
	default:
		s.done = true
	}
}
