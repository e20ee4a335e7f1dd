package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"minsim/internal/experiments"
)

// RunRequest is the JSON body of POST /v1/run and POST /v1/jobs. It
// speaks the repo's existing experiment vocabulary: named paper
// figures and extensions by id, and/or inline custom experiments in
// the exact schema `minsim figures -file` accepts (experiments.ParseJSON).
//
//	{
//	  "figures": ["fig16a", "ext-cluster32"],
//	  "experiments": [{"id": "mine", "loads": [0.1, 0.3], "curves": [...]}],
//	  "budget": {"preset": "quick", "measure": 30000, "seed": 7}
//	}
//
//simvet:wire
type RunRequest struct {
	Figures     []string          `json:"figures"`
	Experiments []json.RawMessage `json:"experiments"`
	Budget      BudgetRequest     `json:"budget"`
}

// BudgetRequest selects the cycle budget: a named preset ("quick" is
// the default, "default" is the paper-quality budget) optionally
// overridden field by field. Zero values mean "keep the preset's".
//
//simvet:wire
type BudgetRequest struct {
	Preset  string `json:"preset"`
	Warmup  int64  `json:"warmup"`
	Measure int64  `json:"measure"`
	Seed    uint64 `json:"seed"`
	// Replicas requests this many independent replications per load
	// point (95% CI error bars in the result CSVs). 0 and 1 both mean
	// single-run points. Each replica counts against the per-job point
	// limit.
	Replicas int `json:"replicas"`
}

// requestError is a client-side validation failure; handlers map it to
// HTTP 400 with the message as the body.
type requestError struct{ msg string }

func (e *requestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &requestError{msg: fmt.Sprintf(format, args...)}
}

// limits is the admission-control envelope a request must fit in; a
// request outside it is rejected before any simulation is scheduled.
type limits struct {
	maxExperiments int   // figure panels per job
	maxPoints      int   // requested load points per job (pre-dedup)
	maxCycles      int64 // warmup+measure cycles per point
}

// parseRunRequest decodes and validates a request body into the
// experiment set and budget the job will run. All errors it returns
// are *requestError (HTTP 400): unknown fields, unknown figure ids,
// malformed inline experiments, and budgets outside the limits.
func parseRunRequest(data []byte, lim limits) ([]experiments.Experiment, experiments.Budget, error) {
	var req RunRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, experiments.Budget{}, badRequest("invalid request JSON: %v", err)
	}

	budget, err := resolveBudget(req.Budget, lim)
	if err != nil {
		return nil, experiments.Budget{}, err
	}

	n := len(req.Figures) + len(req.Experiments)
	if n == 0 {
		return nil, experiments.Budget{}, badRequest("no experiments requested: set \"figures\" and/or \"experiments\"")
	}
	if n > lim.maxExperiments {
		return nil, experiments.Budget{}, badRequest("%d experiments requested, limit is %d per job", n, lim.maxExperiments)
	}

	exps := make([]experiments.Experiment, 0, n)
	for _, id := range req.Figures {
		e, ok := experiments.ByID(id)
		if !ok {
			return nil, experiments.Budget{}, badRequest("unknown figure id %q (see GET /v1/figures)", id)
		}
		exps = append(exps, e)
	}
	for i, raw := range req.Experiments {
		e, err := experiments.ParseJSON(raw)
		if err != nil {
			return nil, experiments.Budget{}, badRequest("experiments[%d]: %v", i, err)
		}
		exps = append(exps, e)
	}

	// Each factor and partial sum is held to the cap before the next
	// is combined with it, so no count wraps past the cap.
	points := 0
	for _, e := range exps {
		points += len(e.Loads) * len(e.Curves)
		if points > lim.maxPoints {
			return nil, experiments.Budget{}, badRequest("job requests at least %d load points, limit is %d per job", points, lim.maxPoints)
		}
	}
	if reps := max(budget.Replicas, 1); reps > lim.maxPoints || points > lim.maxPoints/reps {
		return nil, experiments.Budget{}, badRequest("job requests %d load points x %d replicas, limit is %d load points per job", points, reps, lim.maxPoints)
	}
	return exps, budget, nil
}

// resolveBudget applies the preset then the per-field overrides, and
// enforces the per-point cycle cap.
func resolveBudget(br BudgetRequest, lim limits) (experiments.Budget, error) {
	var b experiments.Budget
	switch strings.ToLower(br.Preset) {
	case "", "quick":
		b = experiments.QuickBudget
	case "default", "full":
		b = experiments.DefaultBudget
	default:
		return b, badRequest("unknown budget preset %q (use \"quick\" or \"default\")", br.Preset)
	}
	if br.Warmup < 0 || br.Measure < 0 {
		return b, badRequest("negative cycle budget")
	}
	if br.Warmup > 0 {
		b.WarmupCycles = br.Warmup
	}
	if br.Measure > 0 {
		b.MeasureCycles = br.Measure
	}
	if br.Seed != 0 {
		b.Seed = br.Seed
	}
	if br.Replicas < 0 {
		return b, badRequest("negative replicas")
	}
	b.Replicas = br.Replicas
	// Both terms are non-negative, so neither comparison can wrap.
	if b.WarmupCycles > lim.maxCycles || b.MeasureCycles > lim.maxCycles-b.WarmupCycles {
		return b, badRequest("cycle budget %d warmup + %d measure exceeds the per-point limit %d", b.WarmupCycles, b.MeasureCycles, lim.maxCycles)
	}
	return b, nil
}
