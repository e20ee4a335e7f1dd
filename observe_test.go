package minsim

import (
	"strings"
	"testing"
)

func TestRunObserved(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{Kind: TMIN})
	if err != nil {
		t.Fatal(err)
	}
	res, obs, err := RunObserved(RunConfig{
		Network:       net,
		Workload:      Workload{Pattern: Uniform, MinLen: 16, MaxLen: 64},
		Load:          0.2,
		WarmupCycles:  2000,
		MeasureCycles: 12000,
		Seed:          3,
	}, ObserveOptions{Histogram: true, Utilization: true, Trace: true, BatchCycles: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesMeasured == 0 {
		t.Fatal("no messages measured")
	}
	if obs.LatencyP50 <= 0 || obs.LatencyP95 < obs.LatencyP50 || obs.LatencyP99 < obs.LatencyP95 {
		t.Errorf("quantiles disordered: %v %v %v", obs.LatencyP50, obs.LatencyP95, obs.LatencyP99)
	}
	if !strings.Contains(obs.HistogramText, "histogram:") {
		t.Error("missing histogram text")
	}
	if !strings.Contains(obs.UtilizationText, "C0") {
		t.Error("missing utilization text")
	}
	if !strings.HasPrefix(obs.TraceCSV, "src,dst,") {
		t.Error("missing trace CSV")
	}
	if !obs.CIOK {
		t.Error("expected a batch-means confidence interval")
	}
	if !(obs.CILow <= res.MeanLatencyCycles+1 && res.MeanLatencyCycles-1 <= obs.CIHigh) {
		// The CI is over batch means, so it should bracket something
		// near the overall mean.
		t.Errorf("CI [%v, %v] far from mean %v", obs.CILow, obs.CIHigh, res.MeanLatencyCycles)
	}
}

func TestRunObservedMinimal(t *testing.T) {
	net, _ := NewNetwork(NetworkConfig{Kind: BMIN})
	res, obs, err := RunObserved(RunConfig{
		Network:       net,
		Workload:      Workload{MinLen: 8, MaxLen: 16},
		Load:          0.1,
		WarmupCycles:  500,
		MeasureCycles: 3000,
	}, ObserveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesMeasured == 0 {
		t.Error("nothing measured")
	}
	if obs.HistogramText != "" || obs.TraceCSV != "" || obs.UtilizationText != "" || obs.CIOK {
		t.Error("disabled instruments produced output")
	}
	if _, _, err := RunObserved(RunConfig{}, ObserveOptions{}); err == nil {
		t.Error("nil network accepted")
	}
}

func TestFacadeOmegaBaseline(t *testing.T) {
	for _, w := range []Wiring{Omega, Baseline} {
		net, err := NewNetwork(NetworkConfig{Kind: TMIN, Wiring: w})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(RunConfig{
			Network:       net,
			Workload:      Workload{MinLen: 8, MaxLen: 32},
			Load:          0.15,
			WarmupCycles:  1000,
			MeasureCycles: 5000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.MessagesMeasured == 0 {
			t.Errorf("wiring %d measured nothing", w)
		}
	}
}

func TestFacadeFaultsAndDepth(t *testing.T) {
	net, _ := NewNetwork(NetworkConfig{Kind: DMIN})
	// Pick an interstage channel to fail via the topology.
	victim := net.Topology().LayerBase(1)
	if !net.Reachable([]int{victim}, 0, 63) {
		t.Error("DMIN should route around one interstage fault")
	}
	res, err := Run(RunConfig{
		Network:        net,
		Workload:       Workload{MinLen: 8, MaxLen: 32},
		Load:           0.15,
		WarmupCycles:   1000,
		MeasureCycles:  6000,
		BufferDepth:    2,
		FailedChannels: []int{victim},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesMeasured == 0 {
		t.Error("faulted run measured nothing")
	}
}

func TestCriticalChannelCount(t *testing.T) {
	tminNet, _ := NewNetwork(NetworkConfig{Kind: TMIN, K: 2, Stages: 3})
	// Every channel of a TMIN is critical: 8 nodes * 2 edges + 2
	// interstage layers * 8 = 32 channels.
	if got := tminNet.CriticalChannelCount(); got != tminNet.Channels() {
		t.Errorf("TMIN critical channels %d, want all %d", got, tminNet.Channels())
	}
	dminNet, _ := NewNetwork(NetworkConfig{Kind: DMIN, K: 2, Stages: 3})
	// Only the 16 node links are critical.
	if got := dminNet.CriticalChannelCount(); got != 16 {
		t.Errorf("DMIN critical channels %d, want 16", got)
	}
}

// TestRunObservedHonorsDepthAndFaults: with no instruments attached,
// RunObserved returns Run's Result, deep buffers and a failed
// interstage channel included.
func TestRunObservedHonorsDepthAndFaults(t *testing.T) {
	net, _ := NewNetwork(NetworkConfig{Kind: DMIN})
	cfg := RunConfig{
		Network:        net,
		Workload:       Workload{MinLen: 8, MaxLen: 32},
		Load:           0.3,
		WarmupCycles:   1000,
		MeasureCycles:  4000,
		Seed:           4,
		BufferDepth:    4,
		FailedChannels: []int{net.Topology().LayerBase(1)},
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RunObserved(cfg, ObserveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("RunObserved = %+v, want Run's %+v", got, want)
	}
}
