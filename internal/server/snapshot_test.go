package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"minsim/internal/experiments"
	"minsim/internal/metrics"
)

// sameReply holds writeSnapshot to writeJSON: status code, headers and
// body.
func sameReply(t *testing.T, name string, code int, s jobSnapshot) {
	t.Helper()
	got, want := httptest.NewRecorder(), httptest.NewRecorder()
	writeSnapshot(got, code, s)
	writeJSON(want, code, s)
	if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) || got.Body.String() != want.Body.String() {
		t.Errorf("%s: writeSnapshot gives %d %v\n  %s\nwriteJSON gives %d %v\n  %s",
			name, got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
	}
}

func snapshotFigures() []metrics.Figure {
	return []metrics.Figure{
		{ID: "fig16a", Title: "Cube vs butterfly TMIN (Fig. 16a)", Series: []metrics.Series{
			{Label: "cube TMIN", Points: []metrics.Point{
				{Offered: 0.05, OfferedMeasured: 0.0498, Throughput: 0.0497, LatencyCyc: 612.5, LatencyMs: 30.625, LatencyP0: 14, LatencyP100: 2200, StdDev: 301.2, Messages: 91, Sustainable: true},
				{Offered: 0.95, Throughput: 0.31, LatencyCyc: 1e5, Messages: 4000, Replicas: 3, LatencyCILo: 9e4, LatencyCIHi: 1.1e5, ThroughputCILo: 3e-7, ThroughputCIHi: 0.4},
			}},
			{Label: "butterfly <TMIN> & co"},
		}},
		{ID: "ext-empty", Series: []metrics.Series{}},
	}
}

// TestWriteSnapshotMatchesWriteJSON covers the replies writeSnapshot
// serves: done with figures, canceled and failed with and without an
// error, a status poll without figures, in UTC and an odd zone.
func TestWriteSnapshotMatchesWriteJSON(t *testing.T) {
	zone := time.FixedZone("odd", -(3*3600 + 30*60))
	created := time.Date(2026, 3, 14, 15, 9, 26, 535897932, time.UTC)
	for _, tc := range []struct {
		name string
		code int
		snap jobSnapshot
	}{
		{"done", http.StatusOK, jobSnapshot{ID: "a1", Status: statusDone, Created: created, DurationMs: 12, Figures: snapshotFigures()}},
		{"done, no figures", http.StatusOK, jobSnapshot{ID: "a2", Status: statusDone, Created: created.In(zone), Figures: []metrics.Figure{}}},
		{"canceled", http.StatusServiceUnavailable, jobSnapshot{ID: "a3", Status: statusCanceled, Error: "context canceled", Created: created.Truncate(time.Second)}},
		{"canceled, no error", http.StatusServiceUnavailable, jobSnapshot{ID: "a4", Status: statusCanceled, Created: time.Now()}},
		{"failed", http.StatusInternalServerError, jobSnapshot{ID: "a5", Status: statusFailed, Error: "point \"x\" <failed> &   é", Created: time.Now().In(zone)}},
		{"failed, no error", http.StatusInternalServerError, jobSnapshot{ID: "a6", Status: statusFailed}},
		{"running", http.StatusOK, jobSnapshot{ID: "a7", Status: statusRunning, Created: created, DurationMs: -1}},
	} {
		sameReply(t, tc.name, tc.code, tc.snap)
	}
}

// TestWriteSnapshotFieldDrift gives every field of jobSnapshot, and of
// its counters, a distinct non-zero value, so a field added to either
// that writeSnapshot does not write fails here.
func TestWriteSnapshotFieldDrift(t *testing.T) {
	var s jobSnapshot
	v := reflect.ValueOf(&s).Elem()
	n := 0
	var fill func(reflect.Value)
	fill = func(f reflect.Value) {
		n++
		switch {
		case f.Type() == reflect.TypeFor[time.Time]():
			f.Set(reflect.ValueOf(time.Unix(int64(n)<<20, int64(n))))
		case f.Type() == reflect.TypeFor[[]metrics.Figure]():
			f.Set(reflect.ValueOf(snapshotFigures()))
		case f.Kind() == reflect.String:
			f.SetString("s" + string(rune('a'+n)))
		case f.Kind() == reflect.Int || f.Kind() == reflect.Int64:
			f.SetInt(int64(n))
		case f.Kind() == reflect.Struct:
			for i := range f.NumField() {
				fill(f.Field(i))
			}
		default:
			t.Fatalf("no filler for a %s field; teach writeSnapshot and this test about it", f.Type())
		}
	}
	fill(v)
	sameReply(t, "every field set", http.StatusOK, s)
}

// TestWriteSnapshotNaN: a figure JSON cannot hold gets writeJSON's 500.
func TestWriteSnapshotNaN(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		figs := snapshotFigures()
		figs[0].Series[0].Points[1].StdDev = x
		s := jobSnapshot{ID: "n", Status: statusDone, Created: time.Now(), Figures: figs}
		sameReply(t, "non-finite point", http.StatusOK, s)
		rec := httptest.NewRecorder()
		writeSnapshot(rec, http.StatusOK, s)
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("a %v point: code %d, want 500", x, rec.Code)
		}
	}
}

// TestFiguresBody: GET /v1/figures lists every figure, then every
// extension, as the tables build them.
func TestFiguresBody(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	var want figuresResponse
	for _, e := range append(experiments.Figures(), experiments.Extensions()...) {
		want.Figures = append(want.Figures, figureInfo{e.ID, e.Title})
	}
	wantBody, _ := json.Marshal(want)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/figures", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != string(wantBody)+"\n" {
		t.Errorf("GET /v1/figures = %d %s, want 200 %s", rec.Code, rec.Body, wantBody)
	}
}
