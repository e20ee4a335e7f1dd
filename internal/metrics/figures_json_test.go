package metrics_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"minsim/internal/experiments"
	"minsim/internal/simrun"
)

// TestAppendJSONEveryFigure runs every paper figure and extension at a
// tiny budget and holds Figure.AppendJSON to json.Marshal on each:
// these are the figures simd replies with.
func TestAppendJSONEveryFigure(t *testing.T) {
	exps := append(experiments.Figures(), experiments.Extensions()...)
	budget := experiments.Budget{WarmupCycles: 100, MeasureCycles: 400, Seed: 1995}
	figs, err := experiments.RunAll(context.Background(), exps, budget, simrun.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range figs {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		if got := f.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("%s: AppendJSON differs from json.Marshal:\n  got  %s\n  want %s", f.ID, got, want)
		}
	}
}
