package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "a", Start: 0, End: 100},
		{ID: 2, Layer: "b", Start: 10, End: 50, Parent: 1},
		{ID: 3, Layer: "b", Start: 30, End: 70, Parent: 1},   // overlaps span 2: union is 10..70
		{ID: 4, Layer: "c", Start: 35, End: 45, Parent: 3},   // grandchild
		{ID: 5, Layer: "b", Start: 90, End: 120, Parent: 1},  // clipped to the parent's end
		{ID: 6, Layer: "d", Start: 200, End: 210, Parent: 0}, // no parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 30, 2: 40, 3: 30, 4: 10, 5: 30, 6: 10} {
		if self[id] != want {
			t.Errorf("span %d: self time %d, want %d", id, self[id], want)
		}
	}
}

func TestLayerSharesAddToOne(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Layer: "engine", Start: 0, End: 90, Parent: 1},
		{ID: 3, Layer: "simrun", Start: 80, End: 85, Parent: 2},
	}
	shares := layerShares(spans)
	if shares["bench"] != 0.10 || shares["engine"] != 0.85 || shares["simrun"] != 0.05 {
		t.Errorf("got %v, want bench 0.10, engine 0.85, simrun 0.05", shares)
	}
}

func TestDescendantsDropsSpansOutsideUnits(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "unit"},
		{ID: 2, Name: "idle poll while the fleet boots"},
		{ID: 3, Name: "request", Parent: 1},
		{ID: 4, Name: "handler", Parent: 3},
		{ID: 5, Name: "handler of the idle poll", Parent: 2},
	}
	kept := descendants(spans, []int{1})
	if len(kept) != 3 || kept[0].ID != 1 || kept[1].ID != 3 || kept[2].ID != 4 {
		t.Errorf("kept %v, want spans 1, 3, 4", kept)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", "y", 0)
	tr.end(id)
	tr.setUnit(3)
	if id != 0 || tr.add("x", "y", 0, time.Now(), time.Now()) != 0 || tr.snapshot() != nil {
		t.Error("a nil tracer recorded something")
	}
}

func TestTracerReparent(t *testing.T) {
	tr := newTracer()
	tr.setUnit(1)
	root := tr.begin("run", layerExperiments, 0)
	get := tr.begin("Store.Get", layerSimrun, root)
	tr.end(get)
	tr.end(root)
	from, _ := tr.earliest(func(s span) bool { return s.Layer == layerSimrun })
	plan := tr.add("Plan.Execute", layerSimrun, root, from, time.Now())
	tr.reparent(plan, from, time.Now(), func(s span) bool { return s.Name == "Store.Get" })
	spans := tr.snapshot()
	if spans[get-1].Parent != plan || spans[plan-1].Parent != root {
		t.Errorf("after reparent: %+v", spans)
	}
}
