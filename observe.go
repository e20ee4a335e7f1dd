package minsim

import (
	"cmp"
	"fmt"

	"minsim/internal/engine"
	"minsim/internal/metrics"
	"minsim/internal/trace"
)

// Observation carries the optional deep instrumentation of a run:
// the latency distribution, per-layer channel utilization, batch-means
// confidence interval, and a per-message trace.
type Observation struct {
	LatencyP50, LatencyP95, LatencyP99 float64 // cycles
	HistogramText                      string  // rendered latency histogram
	UtilizationText                    string  // per-layer channel utilization
	TraceCSV                           string  // one row per delivered message
	// CILow/CIHigh bound the 95% batch-means confidence interval for
	// the mean latency; CIOK reports whether enough batches completed.
	CILow, CIHigh float64
	CIOK          bool
}

// ObserveOptions selects which instruments to enable. Tracing keeps a
// record per message; leave it off for long runs.
type ObserveOptions struct {
	Histogram   bool
	Utilization bool
	Trace       bool
	// BatchCycles enables batch-means confidence intervals with the
	// given batch length (0 disables; try MeasureCycles/20).
	BatchCycles int64
}

// RunObserved runs one simulation point with instrumentation attached.
// The traffic source comes from the workload's simrun spec; the facade
// keeps its own seed convention (source seed^0x5bf03635, engine seed).
func RunObserved(cfg RunConfig, opts ObserveOptions) (Result, Observation, error) {
	if cfg.Network == nil {
		return Result{}, Observation{}, fmt.Errorf("minsim: nil network")
	}
	warmup := cmp.Or(cfg.WarmupCycles, 20_000)
	measure := cmp.Or(cfg.MeasureCycles, 60_000)
	work, err := cfg.Workload.spec()
	if err != nil {
		return Result{}, Observation{}, err
	}
	topo := cfg.Network.topo
	src, err := work.Factory(topo)(cfg.Load, cfg.Seed^0x5bf03635)
	if err != nil {
		return Result{}, Observation{}, err
	}
	var rec trace.Recorder
	ecfg := engine.Config{
		Net:            topo,
		Source:         src,
		Seed:           cfg.Seed,
		QueueLimit:     cfg.QueueLimit,
		BufferDepth:    cfg.BufferDepth,
		FailedChannels: cfg.FailedChannels,
	}
	if opts.Trace {
		ecfg.OnDeliver = rec.OnDeliver
	}
	e, err := engine.New(ecfg)
	if err != nil {
		return Result{}, Observation{}, err
	}
	var hist engine.Histogram
	if opts.Histogram {
		e.EnableLatencyHistogram(&hist)
	}
	if opts.Utilization {
		e.EnableChannelStats()
	}
	if opts.BatchCycles > 0 {
		e.EnableBatchMeans(opts.BatchCycles)
	}
	e.SetMeasureFrom(warmup)
	e.Run(warmup + measure)

	st := e.Stats()
	res := result(metrics.FromStats(cfg.Load, topo.Nodes, st), st.MaxQueue)
	var obs Observation
	if opts.Histogram && hist.Count() > 0 {
		obs.LatencyP50 = hist.Quantile(0.5)
		obs.LatencyP95 = hist.Quantile(0.95)
		obs.LatencyP99 = hist.Quantile(0.99)
		obs.HistogramText = hist.String()
	}
	if opts.Utilization {
		obs.UtilizationText = trace.UtilizationReport(topo, e.ChannelFlits(), st.Cycles) +
			trace.BlockingReport(e.BlockedByStage(), st.Cycles)
	}
	if opts.Trace {
		obs.TraceCSV = rec.CSV()
	}
	if opts.BatchCycles > 0 {
		obs.CILow, obs.CIHigh, obs.CIOK = metrics.ConfidenceInterval(e.BatchMeans(), 1.96)
	}
	return res, obs, nil
}
