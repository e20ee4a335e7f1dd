package trace

import (
	"testing"

	"minsim/internal/engine"
)

func deliverN(r *Recorder, n int) {
	for i := 0; i < n; i++ {
		r.OnDeliver(engine.Message{Src: i % 7, Dst: (i + 1) % 7, Len: 8, Created: int64(i)}, int64(i+50))
	}
}

func TestRecorderUnboundedDefault(t *testing.T) {
	var r Recorder
	deliverN(&r, 250)
	if len(r.Records) != 250 || r.seen != 250 {
		t.Fatalf("kept %d seen %d, want 250/250", len(r.Records), r.seen)
	}
}

func TestRecorderKeepFirstLimit(t *testing.T) {
	r := Recorder{Limit: 100}
	deliverN(&r, 250)
	if len(r.Records) != 100 {
		t.Fatalf("kept %d records, want 100", len(r.Records))
	}
	if cap(r.Records) != 100 {
		t.Errorf("buffer capacity %d, want exactly the limit 100", cap(r.Records))
	}
	if r.seen != 250 {
		t.Errorf("seen %d, want 250", r.seen)
	}
	// Keep-first retains the prefix in delivery order.
	for i, m := range r.Records {
		if m.Created != int64(i) {
			t.Fatalf("record %d has Created %d; keep-first must retain the prefix", i, m.Created)
		}
	}
}

func TestRecorderReservoir(t *testing.T) {
	sample := func(seed uint64) []MessageRecord {
		r := Recorder{Limit: 100, Sample: true, Seed: seed}
		deliverN(&r, 2000)
		if len(r.Records) != 100 || r.seen != 2000 {
			t.Fatalf("kept %d seen %d, want 100/2000", len(r.Records), r.seen)
		}
		return r.Records
	}

	a, b := sample(5), sample(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different reservoir samples")
		}
	}
	c := sample(6)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical reservoir samples")
	}

	// The reservoir must reach past the prefix a keep-first cap retains.
	late := 0
	for _, m := range a {
		if m.Created >= 100 {
			late++
		}
	}
	if late == 0 {
		t.Error("reservoir kept only the first-100 prefix; sampling is not uniform over the run")
	}
}

func TestRecorderShortRunUnderLimit(t *testing.T) {
	r := Recorder{Limit: 100, Sample: true, Seed: 1}
	deliverN(&r, 30)
	if len(r.Records) != 30 {
		t.Fatalf("kept %d records of a 30-delivery run, want all 30", len(r.Records))
	}
}

func TestRecorderReserve(t *testing.T) {
	var r Recorder
	r.Reserve(500)
	if cap(r.Records) < 500 {
		t.Fatalf("capacity %d after Reserve(500)", cap(r.Records))
	}
	deliverN(&r, 400)
	if cap(r.Records) < 500 || len(r.Records) != 400 {
		t.Fatalf("len %d cap %d after 400 deliveries", len(r.Records), cap(r.Records))
	}
}
