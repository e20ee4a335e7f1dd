package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// checkJSON holds Figure.AppendJSON to json.Marshal: the same bytes,
// appended after what the buffer already holds, or nil exactly when
// json.Marshal refuses a value.
func checkJSON(t *testing.T, f Figure) {
	t.Helper()
	want, err := json.Marshal(f)
	got := f.AppendJSON([]byte("prefix"))
	if err != nil {
		if got != nil {
			t.Fatalf("AppendJSON = %s, want nil: json.Marshal fails with %v", got, err)
		}
		return
	}
	if !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("AppendJSON differs from json.Marshal:\n  got  %s\n  want prefix%s", got, want)
	}
}

// TestAppendJSONFieldDrift gives every field of Figure, Series and
// Point a distinct non-zero value, so a field added to any of them
// that AppendJSON does not write fails here.
func TestAppendJSONFieldDrift(t *testing.T) {
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.Float64:
			v.SetFloat(float64(n) + 0.25)
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(n))
		case reflect.Bool:
			v.SetBool(true)
		case reflect.String:
			v.SetString(v.Type().Name() + string(rune('a'+n%26)))
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			for i := range 2 {
				fill(v.Index(i))
			}
		case reflect.Struct:
			for i := range v.NumField() {
				fill(v.Field(i))
			}
		default:
			t.Fatalf("no filler for a %s field; teach AppendJSON and this test about it", v.Type())
		}
	}
	var f Figure
	fill(reflect.ValueOf(&f).Elem())
	checkJSON(t, f)
	if f.Series[1].Points[1].ThroughputCIHi == 0 || !f.Series[0].Points[0].Sustainable {
		t.Fatalf("filler left a field zero: %+v", f)
	}
}

// TestAppendJSONEdges covers nil against empty slices, the float
// magnitudes where encoding/json switches between 'f' and 'e', strings
// it escapes, and the non-finite values it refuses.
func TestAppendJSONEdges(t *testing.T) {
	for _, f := range []Figure{
		{},
		{ID: "x", Series: []Series{}},
		{ID: "x", Series: []Series{{Label: "nil points"}, {Label: "empty", Points: []Point{}}}},
		{ID: `quote " backslash \ <tag> & amp`, Title: "tab\tnewline\n é   \xff"},
	} {
		checkJSON(t, f)
	}
	for c := range 256 {
		checkJSON(t, Figure{ID: "a" + string(rune(c)) + "z", Title: "a" + string([]byte{byte(c)}) + "z"})
	}
	checkJSON(t, Figure{Title: "line\u2028separator"})
	floats := []float64{
		1e-7, -1e-7, 1e-6, 9.99e-7, 1e20, 1e21, -1e21, 1.5e300, 1e-100, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff), math.MaxFloat64, -math.MaxFloat64,
		0.1, 1.0 / 3, 123456789.125,
	}
	for _, v := range floats {
		checkJSON(t, pointFigure(v))
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := pointFigure(v).AppendJSON(nil); got != nil {
			t.Errorf("AppendJSON with %v = %s, want nil", v, got)
		}
	}
}

// pointFigure is a one-point figure with v in every float field.
func pointFigure(v float64) Figure {
	return Figure{ID: "f", Series: []Series{{Label: "s", Points: []Point{{
		Offered: v, OfferedMeasured: v, Throughput: v, LatencyCyc: v, LatencyMs: v, LatencyP0: v, LatencyP100: v,
		StdDev: v, Messages: -7, Replicas: 3,
		LatencyCILo: v, LatencyCIHi: v, ThroughputCILo: v, ThroughputCIHi: v,
	}}}}}
}

// TestAppendJSONAllocs: into a buffer already large enough, a figure
// costs no allocation.
func TestAppendJSONAllocs(t *testing.T) {
	f := pointFigure(0.375)
	f.Series = append(f.Series, Series{Label: "two", Points: []Point{{Offered: 1e-9}, {Offered: 1e22}}})
	buf := make([]byte, 0, 4096)
	if allocs := testing.AllocsPerRun(100, func() { buf = f.AppendJSON(buf[:0]) }); allocs != 0 {
		t.Errorf("AppendJSON into a pre-grown buffer: %v allocations, want 0", allocs)
	}
}

// FuzzFigureJSON: for any float64, and its negation, neighbours and
// squeezed twin, in every float field, AppendJSON is json.Marshal.
// Without -fuzz it runs digitSeeds.
func FuzzFigureJSON(f *testing.F) {
	for _, v := range digitSeeds() {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		for _, w := range []float64{v, -v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)), squeeze(bits)} {
			checkJSON(t, pointFigure(w))
		}
	})
}
