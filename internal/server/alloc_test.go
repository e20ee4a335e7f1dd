package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestWarmRunAllocation bounds what a warm one-figure run request
// allocates once the store and the in-memory front hold every point:
// parse, plan, job and reply, with the engine idle. Measured on fig16a
// (2 curves x 10 loads at a 200/800-cycle budget), averaged over the
// requests below: 48.4 KB a request when every point-run copied its
// sweep's whole RunSpec and every reply started in a fresh 16 KB
// buffer, 28.0 KB since a point-run shares its sweep's spec and
// replies reuse pooled buffers. The bound sits between the two.
func TestWarmRunAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	s, err := New(Config{Store: newDisk(t), SimWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	const body = `{"figures":["fig16a"],"budget":{"warmup":200,"measure":800,"seed":1}}`
	run := func() {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("code %d body %s", rec.Code, rec.Body)
		}
	}
	run() // cold: fills the store and the front
	run() // warm: pools and the front's map at their working size

	const n = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("a warm fig16a request allocated %d bytes", per)
	if per > 38_000 {
		t.Errorf("a warm fig16a request allocated %d bytes, want at most 38000", per)
	}
}
