package server

import (
	"math/big"
	"strings"
	"testing"

	"minsim/internal/experiments"
)

var testLimits = limits{maxExperiments: 8, maxPoints: 1000, maxCycles: 10_000_000}

// tinyExperiment is a 16-node two-point sweep that simulates in
// milliseconds; measure is spliced in so tests can also build slow
// jobs from the same definition.
const tinyExperimentJSON = `{
  "id": "tiny",
  "loads": [0.1, 0.2],
  "curves": [
    {"label": "t", "network": {"kind": "tmin", "k": 4, "stages": 2},
     "workload": {"pattern": "uniform"}}
  ]
}`

func TestParseRunRequestValid(t *testing.T) {
	body := `{"figures":["fig16a"],"experiments":[` + tinyExperimentJSON + `],
	          "budget":{"preset":"quick","measure":2000,"seed":7}}`
	exps, budget, err := parseRunRequest([]byte(body), testLimits)
	if err != nil {
		t.Fatalf("parseRunRequest: %v", err)
	}
	if len(exps) != 2 || exps[0].ID != "fig16a" || exps[1].ID != "tiny" {
		t.Fatalf("wrong experiments: %+v", exps)
	}
	if budget.MeasureCycles != 2000 || budget.Seed != 7 {
		t.Fatalf("overrides not applied: %+v", budget)
	}
	if budget.WarmupCycles != experiments.QuickBudget.WarmupCycles {
		t.Fatalf("preset warmup not kept: %+v", budget)
	}
}

func TestParseRunRequestErrors(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"garbage", `{`, "invalid request JSON"},
		{"unknown field", `{"figs":["fig16a"]}`, "invalid request JSON"},
		{"empty", `{}`, "no experiments requested"},
		{"unknown figure", `{"figures":["fig99z"]}`, "unknown figure id"},
		{"bad preset", `{"figures":["fig16a"],"budget":{"preset":"huge"}}`, "unknown budget preset"},
		{"negative cycles", `{"figures":["fig16a"],"budget":{"measure":-5}}`, "negative cycle budget"},
		{"over cycle cap", `{"figures":["fig16a"],"budget":{"measure":999999999}}`, "exceeds the per-point limit"},
		{"bad inline experiment", `{"experiments":[{"id":"x","loads":[],"curves":[]}]}`, "experiments[0]"},
		{"inline bad network", `{"experiments":[{"id":"x","loads":[0.1],
		   "curves":[{"label":"c","network":{"kind":"warp"},"workload":{}}]}]}`, "unknown network kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := parseRunRequest([]byte(tc.body), testLimits)
			if err == nil {
				t.Fatalf("no error for %s", tc.body)
			}
			if _, ok := err.(*requestError); !ok {
				t.Fatalf("error %v is not a *requestError", err)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseRunRequestCaps(t *testing.T) {
	lim := testLimits
	lim.maxPoints = 3 // tiny requests 2 loads x 1 curve = 2 points; two copies = 4
	body := `{"experiments":[` + tinyExperimentJSON + `,` + tinyExperimentJSON + `]}`
	if _, _, err := parseRunRequest([]byte(body), lim); err == nil || !strings.Contains(err.Error(), "load points") {
		t.Fatalf("point cap not enforced: %v", err)
	}
	lim = testLimits
	lim.maxExperiments = 1
	if _, _, err := parseRunRequest([]byte(body), lim); err == nil || !strings.Contains(err.Error(), "experiments requested") {
		t.Fatalf("experiment cap not enforced: %v", err)
	}
	for _, b := range wrappingBudgets {
		body := `{"figures":["fig17a"],"budget":{` + b + `}}`
		if _, _, err := parseRunRequest([]byte(body), testLimits); err == nil || !strings.Contains(err.Error(), "limit") {
			t.Errorf("%s: admitted or wrong error: %v", body, err)
		}
	}
}

// wrappingBudgets each overflowed an admission product or sum to a
// negative count, under the cap: 2^62 and 2^61 replicas times fig17a's
// 30 points, and the two cycle sums.
var wrappingBudgets = []string{
	`"replicas":4611686018427387904`,
	`"replicas":2305843009213693952`,
	`"warmup":9223372036854775807,"measure":1`,
	`"warmup":4611686018427387904,"measure":4611686018427387904`,
}

// TestParseRunRequestReplicas pins the admission accounting for
// replicated jobs: every replica counts against the point limit, and
// negative replica counts are rejected.
func TestParseRunRequestReplicas(t *testing.T) {
	body := `{"experiments":[` + tinyExperimentJSON + `],"budget":{"replicas":3}}`

	lim := testLimits
	lim.maxPoints = 5 // 2 loads x 1 curve x 3 replicas = 6 > 5
	if _, _, err := parseRunRequest([]byte(body), lim); err == nil {
		t.Fatal("6 replicated points admitted under a 5-point limit")
	}

	lim.maxPoints = 6
	_, budget, err := parseRunRequest([]byte(body), lim)
	if err != nil {
		t.Fatal(err)
	}
	if budget.Replicas != 3 {
		t.Fatalf("replicas not carried into the budget: %+v", budget)
	}

	if _, _, err := parseRunRequest([]byte(`{"figures":["fig16a"],"budget":{"replicas":-1}}`), testLimits); err == nil {
		t.Fatal("negative replicas admitted")
	}
}

// FuzzParseRunRequest: every request parseRunRequest admits fits the
// limits, with the points and cycles recounted in arbitrary precision
// so a count that wraps cannot pass for a small one.
func FuzzParseRunRequest(f *testing.F) {
	for _, b := range wrappingBudgets {
		f.Add([]byte(`{"figures":["fig17a"],"budget":{` + b + `}}`))
	}
	f.Add([]byte(`{"experiments":[` + tinyExperimentJSON + `],"budget":{"replicas":3,"warmup":5,"measure":7}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		exps, budget, err := parseRunRequest(data, testLimits)
		if err != nil {
			return
		}
		points := new(big.Int)
		for _, e := range exps {
			points.Add(points, new(big.Int).Mul(big.NewInt(int64(len(e.Loads))), big.NewInt(int64(len(e.Curves)))))
		}
		points.Mul(points, big.NewInt(int64(max(budget.Replicas, 1))))
		if points.Cmp(big.NewInt(int64(testLimits.maxPoints))) > 0 {
			t.Fatalf("admitted %s load points over the %d limit: %s", points, testLimits.maxPoints, data)
		}
		cycles := new(big.Int).Add(big.NewInt(budget.WarmupCycles), big.NewInt(budget.MeasureCycles))
		if cycles.Cmp(big.NewInt(testLimits.maxCycles)) > 0 {
			t.Fatalf("admitted %s cycles per point over the %d limit: %s", cycles, testLimits.maxCycles, data)
		}
	})
}
