package engine

import (
	"strings"
	"testing"

	"minsim/internal/topology"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram should zero everything")
	}
	for _, v := range []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100} {
		h.Add(v)
	}
	if h.Count() != 10 {
		t.Errorf("count %d", h.Count())
	}
	if h.Mean() != 55 {
		t.Errorf("mean %v", h.Mean())
	}
	if h.Quantile(0) != 10 || h.Max() != 100 {
		t.Errorf("min %v max %v", h.Quantile(0), h.Max())
	}
	if got := h.Quantile(0.5); got != 50 {
		t.Errorf("p50 %v", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("p100 %v", got)
	}
	if got := h.Quantile(0); got != 10 {
		t.Errorf("p0 %v", got)
	}
}

func TestHistogramQuantilePanics(t *testing.T) {
	var h Histogram
	h.Add(1)
	defer func() {
		if recover() == nil {
			t.Error("quantile out of range did not panic")
		}
	}()
	h.Quantile(1.5)
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 1.5, 3, 5, 9, 100} {
		h.Add(v)
	}
	lo, counts := h.Buckets()
	if len(lo) != len(counts) {
		t.Fatal("length mismatch")
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 6 {
		t.Errorf("bucket total %d", total)
	}
	// [1,2): 2 samples; [2,4): 1; [4,8): 1; [8,16): 1; [64,128): 1.
	if counts[0] != 2 || counts[1] != 1 || counts[2] != 1 || counts[3] != 1 {
		t.Errorf("counts %v", counts)
	}
	if counts[len(counts)-1] != 1 {
		t.Errorf("top bucket %d", counts[len(counts)-1])
	}
	s := h.String()
	if !strings.Contains(s, "n=6") {
		t.Errorf("String missing count: %s", s)
	}
	var empty Histogram
	if empty.String() != "histogram: empty" {
		t.Error("empty String wrong")
	}
}

func TestEngineLatencyHistogram(t *testing.T) {
	net, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	if err != nil {
		t.Fatal(err)
	}
	var h Histogram
	e, err := New(Config{
		Net:    net,
		Source: scripted(net.Nodes, Message{Src: 0, Dst: 5, Len: 20, Created: 0}, Message{Src: 1, Dst: 9, Len: 40, Created: 0}),
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.EnableLatencyHistogram(&h)
	if !e.RunUntilDrained(10000) {
		t.Fatal("did not drain")
	}
	if h.Count() != 2 {
		t.Fatalf("histogram has %d samples, want 2", h.Count())
	}
	if float64(e.Stats().LatencyMax) != h.Max() {
		t.Errorf("histogram max %v != stats max %d", h.Max(), e.Stats().LatencyMax)
	}
}

func TestEngineOnDeliver(t *testing.T) {
	net, err := topology.NewBMIN(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	var got []Message
	var times []int64
	e, err := New(Config{
		Net:    net,
		Source: scripted(net.Nodes, Message{Src: 0, Dst: 5, Len: 8, Created: 0}, Message{Src: 3, Dst: 1, Len: 16, Created: 4}),
		Seed:   2,
		OnDeliver: func(m Message, completed int64) {
			got = append(got, m)
			times = append(times, completed)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !e.RunUntilDrained(10000) {
		t.Fatal("did not drain")
	}
	if len(got) != 2 {
		t.Fatalf("%d deliveries reported", len(got))
	}
	for i, m := range got {
		if times[i] <= m.Created {
			t.Errorf("delivery %d at %d not after creation %d", i, times[i], m.Created)
		}
		if times[i] < m.Created+int64(m.Len) {
			t.Errorf("delivery %d at %d faster than message length %d", i, times[i], m.Len)
		}
	}
}
