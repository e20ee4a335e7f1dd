package experiments

import (
	"runtime"
	"strings"
	"testing"

	"minsim/internal/topology"
	"minsim/internal/traffic"
)

const sampleJSON = `{
  "id": "custom-1",
  "title": "TMIN vs DMIN custom",
  "expect": "DMIN wins",
  "loads": [0.1, 0.3],
  "curves": [
    {
      "label": "TMIN omega",
      "network": {"kind": "tmin", "wiring": "omega"},
      "workload": {"pattern": "uniform"}
    },
    {
      "label": "DMIN hot",
      "network": {"kind": "dmin", "dilation": 2},
      "workload": {"pattern": "hotspot", "hotx": 0.05, "cluster": "cluster-16",
                   "ratios": [4,1,1,1], "minlen": 8, "maxlen": 64},
      "bufferdepth": 2
    },
    {
      "label": "BMIN bitreverse",
      "network": {"kind": "bmin"},
      "workload": {"pattern": "bitreverse"}
    }
  ]
}`

func TestParseJSON(t *testing.T) {
	e, err := ParseJSON([]byte(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "custom-1" || len(e.Curves) != 3 || len(e.Loads) != 2 {
		t.Fatalf("parsed %+v", e)
	}
	if e.Curves[0].Net.Pattern != topology.Omega {
		t.Error("omega wiring not parsed")
	}
	if e.Curves[1].Net.Kind != topology.DMIN || e.Curves[1].BufferDepth != 2 {
		t.Error("DMIN curve wrong")
	}
	if e.Curves[1].Work.Pattern.Kind != HotSpot || e.Curves[1].Work.Pattern.HotX != 0.05 {
		t.Error("hotspot workload wrong")
	}
	if got := e.Curves[1].Work.Lengths; got == nil || *got != (traffic.Lengths{Kind: "uniform", Min: 8, Max: 64}) {
		t.Error("length range wrong")
	}
	if e.Curves[2].Work.Pattern.Kind != NamedPerm || e.Curves[2].Work.Pattern.Name != "bitreverse" {
		t.Error("named permutation wrong")
	}
}

func TestParseJSONRunsEndToEnd(t *testing.T) {
	e, err := ParseJSON([]byte(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	e.Loads = []float64{0.1}
	fig, err := e.Run(Budget{WarmupCycles: 500, MeasureCycles: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("%d series", len(fig.Series))
	}
	for _, s := range fig.Series {
		if s.Points[0].Messages == 0 {
			t.Errorf("%s measured nothing", s.Label)
		}
	}
}

func TestParseJSONErrors(t *testing.T) {
	bad := map[string]string{
		"not json":       `{`,
		"missing id":     `{"loads":[0.1],"curves":[{"label":"x"}]}`,
		"no loads":       `{"id":"x","curves":[{"label":"x"}]}`,
		"bad loads":      `{"id":"x","loads":[0.3,0.1],"curves":[{"label":"x"}]}`,
		"negative loads": `{"id":"x","loads":[-0.1,0.5],"curves":[{"label":"x"}]}`,
		"no curves":      `{"id":"x","loads":[0.1]}`,
		"no label":       `{"id":"x","loads":[0.1],"curves":[{}]}`,
		"bad kind":       `{"id":"x","loads":[0.1],"curves":[{"label":"a","network":{"kind":"mesh"}}]}`,
		"bad wiring":     `{"id":"x","loads":[0.1],"curves":[{"label":"a","network":{"wiring":"ring"}}]}`,
		"bad cluster":    `{"id":"x","loads":[0.1],"curves":[{"label":"a","workload":{"cluster":"blob"}}]}`,
		"bad hotx":       `{"id":"x","loads":[0.1],"curves":[{"label":"a","workload":{"pattern":"hotspot","hotx":-1}}]}`,
		"bad lengths":    `{"id":"x","loads":[0.1],"curves":[{"label":"a","workload":{"minlen":10,"maxlen":5}}]}`,
		"bad depth":      `{"id":"x","loads":[0.1],"curves":[{"label":"a","bufferdepth":-1}]}`,
		"bad k":          `{"id":"x","loads":[0.1],"curves":[{"label":"a","network":{"k":3}}]}`,
		"bad arrival":    `{"id":"x","loads":[0.1],"curves":[{"label":"a","workload":{"arrival":"fractal"}}]}`,
		"bad mmpp":       `{"id":"x","loads":[0.1],"curves":[{"label":"a","workload":{"arrival":"mmpp","burst":0.5,"dwellhi":100,"dwelllo":100}}]}`,
		"bad onoff":      `{"id":"x","loads":[0.1],"curves":[{"label":"a","workload":{"arrival":"onoff","dwellhi":0,"dwelllo":100}}]}`,
		"empty trace":    `{"id":"x","loads":[0.1],"curves":[{"label":"a","workload":{"pattern":"trace"}}]}`,
	}
	for name, j := range bad {
		if _, err := ParseJSON([]byte(j)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestParseJSONNewKinds: the bursty arrivals and the trace/adversarial
// patterns parse from JSON and run end-to-end through the plan layer —
// the same path the simd server's job handler takes.
func TestParseJSONNewKinds(t *testing.T) {
	const burstyJSON = `{
	  "id": "bursty-1",
	  "loads": [0.15],
	  "curves": [
	    {
	      "label": "mmpp",
	      "network": {"kind": "tmin", "stages": 2},
	      "workload": {"arrival": "mmpp", "burst": 8, "dwellhi": 200, "dwelllo": 800, "minlen": 8, "maxlen": 16}
	    },
	    {
	      "label": "onoff",
	      "network": {"kind": "tmin", "stages": 2},
	      "workload": {"arrival": "onoff", "dwellhi": 200, "dwelllo": 600, "minlen": 8, "maxlen": 16}
	    },
	    {
	      "label": "trace",
	      "network": {"kind": "tmin", "stages": 2},
	      "workload": {"pattern": "trace", "trace": [{"src":0,"dst":5},{"src":3,"dst":9},{"src":0,"dst":2}], "minlen": 8, "maxlen": 16}
	    },
	    {
	      "label": "adversarial",
	      "network": {"kind": "tmin", "stages": 2},
	      "workload": {"pattern": "adversarial", "adviters": 256, "minlen": 8, "maxlen": 16}
	    }
	  ]
	}`
	e, err := ParseJSON([]byte(burstyJSON))
	if err != nil {
		t.Fatal(err)
	}
	if e.Curves[0].Work.Arrival.Kind != ArrivalMMPP || e.Curves[0].Work.Arrival.Burst != 8 {
		t.Errorf("mmpp arrival wrong: %+v", e.Curves[0].Work.Arrival)
	}
	if e.Curves[1].Work.Arrival.Kind != ArrivalOnOff {
		t.Errorf("onoff arrival wrong: %+v", e.Curves[1].Work.Arrival)
	}
	if e.Curves[2].Work.Pattern.Kind != TraceReplay || len(e.Curves[2].Work.Pattern.Trace) != 3 {
		t.Errorf("trace pattern wrong: %+v", e.Curves[2].Work.Pattern)
	}
	if e.Curves[3].Work.Pattern.Kind != Adversarial || e.Curves[3].Work.Pattern.AdvIters != 256 {
		t.Errorf("adversarial pattern wrong: %+v", e.Curves[3].Work.Pattern)
	}
	fig, err := e.Run(Budget{WarmupCycles: 500, MeasureCycles: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		if s.Points[0].Messages == 0 {
			t.Errorf("%s measured nothing", s.Label)
		}
	}
}

func TestParseJSONDefaults(t *testing.T) {
	e, err := ParseJSON([]byte(`{"id":"d","loads":[0.2],"curves":[{"label":"default"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	c := e.Curves[0]
	if c.Net.Kind != topology.TMIN || c.Net.K != 4 || c.Net.Stages != 3 {
		t.Errorf("network defaults wrong: %+v", c.Net)
	}
	if c.Work.Cluster != Global || c.Work.Pattern.Kind != Uniform || c.Work.Lengths != nil {
		t.Errorf("workload defaults wrong: %+v", c.Work)
	}
	if !strings.Contains(e.Title, "d") {
		t.Error("title default wrong")
	}
}

// TestParseJSONDoesNotBuild: parsing validates a request's networks at
// the cost of their descriptions — a server parses ahead of admission,
// so a request must not be able to make it allocate by the size of the
// network it names (here the largest power of two a run admits).
func TestParseJSONDoesNotBuild(t *testing.T) {
	req := []byte(`{"id":"big","loads":[0.1],"curves":[{"label":"a","network":{"k":2,"stages":19}}]}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := ParseJSON(req)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("ParseJSON of a 2^19-node curve allocated %d bytes", got)
	}
	net, err := e.Curves[0].Net.Build()
	if err != nil {
		t.Fatal(err)
	}
	if net.Nodes != 1<<19 {
		t.Fatalf("parsed a %d-node network", net.Nodes)
	}
}
