package trace

import (
	"strings"
	"testing"

	"minsim/internal/engine"
	"minsim/internal/topology"
)

type oneShot struct{ msgs []engine.Message }

func (s *oneShot) Next(node int) (engine.Message, bool) {
	for i, m := range s.msgs {
		if m.Src == node {
			s.msgs = append(s.msgs[:i], s.msgs[i+1:]...)
			return m, true
		}
	}
	return engine.Message{}, false
}

func TestRecorder(t *testing.T) {
	net, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	if err != nil {
		t.Fatal(err)
	}
	var rec Recorder
	src := &oneShot{msgs: []engine.Message{
		{Src: 0, Dst: 5, Len: 10, Created: 0},
		{Src: 1, Dst: 5, Len: 20, Created: 0},
		{Src: 2, Dst: 9, Len: 30, Created: 5},
	}}
	e, err := engine.New(engine.Config{Net: net, Source: src, Seed: 3, OnDeliver: rec.OnDeliver})
	if err != nil {
		t.Fatal(err)
	}
	e.EnableChannelStats()
	if !e.RunUntilDrained(10000) {
		t.Fatal("did not drain")
	}
	if len(rec.Records) != 3 {
		t.Fatalf("%d records", len(rec.Records))
	}
	for _, m := range rec.Records {
		if m.Latency() < int64(m.Len) {
			t.Errorf("record %+v has impossible latency", m)
		}
	}
	csv := rec.CSV()
	if !strings.HasPrefix(csv, "src,dst,len,") || strings.Count(csv, "\n") != 4 {
		t.Errorf("CSV malformed:\n%s", csv)
	}

	util := UtilizationReport(net, e.ChannelFlits(), e.Stats().Cycles)
	if !strings.Contains(util, "C0") || !strings.Contains(util, "C3") {
		t.Errorf("utilization report missing layers:\n%s", util)
	}
}

func TestEmptyRecorder(t *testing.T) {
	var rec Recorder
	if strings.Count(rec.CSV(), "\n") != 1 {
		t.Error("empty CSV should be header only")
	}
}

func TestBlockingReport(t *testing.T) {
	out := BlockingReport([]int64{10, 30, 60}, 1000)
	for _, want := range []string{"G0", "G2", "60.0% of blocking", "0.060 per cycle"} {
		if !strings.Contains(out, want) {
			t.Errorf("blocking report missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(BlockingReport(nil, 100), "no data") {
		t.Error("nil blocked should report no data")
	}
	if !strings.Contains(BlockingReport([]int64{1}, 0), "no data") {
		t.Error("zero cycles should report no data")
	}
	// All-zero counters render without dividing by zero.
	if strings.Contains(BlockingReport([]int64{0, 0}, 10), "NaN") {
		t.Error("zero blocking produced NaN")
	}
}

func TestUtilizationNoData(t *testing.T) {
	net, _ := topology.NewBMIN(2, 2)
	if !strings.Contains(UtilizationReport(net, nil, 100), "no data") {
		t.Error("nil flits should report no data")
	}
	if !strings.Contains(UtilizationReport(net, make([]int64, net.ChannelCount()), 0), "no data") {
		t.Error("zero cycles should report no data")
	}
}

func TestUtilizationBMINDirections(t *testing.T) {
	net, _ := topology.NewBMIN(2, 2)
	flits := make([]int64, net.ChannelCount())
	for i := range flits {
		flits[i] = int64(i)
	}
	rep := UtilizationReport(net, flits, 10)
	if !strings.Contains(rep, "fwd") || !strings.Contains(rep, "bwd") {
		t.Errorf("BMIN report missing directions:\n%s", rep)
	}
}
