package simrun

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"minsim/internal/metrics"
)

const testKey = "00000000000000000000000000000000000000000000000000000000000000a1"

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// samePoint compares field by field, floats by bit pattern except
// that any NaN equals any NaN (the text form keeps no payload).
func samePoint(a, b metrics.Point) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if va.Field(i).Kind() == reflect.Float64 {
			x, y := va.Field(i).Float(), vb.Field(i).Float()
			if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
				return false
			}
		} else if va.Field(i).Interface() != vb.Field(i).Interface() {
			return false
		}
	}
	return true
}

// checkRoundTrip is the codec's one property: what appendEntry writes
// is three lines, whatever the spec says, and parseEntry reads the
// same point back.
func checkRoundTrip(t *testing.T, spec string, p metrics.Point) {
	t.Helper()
	data := appendEntry(nil, testKey, spec, p)
	if n := bytes.Count(data, []byte{'\n'}); n != 3 {
		t.Fatalf("entry for spec %q has %d lines, want 3:\n%s", spec, n, data)
	}
	got, ok := parseEntry(data, testKey)
	if !ok {
		t.Fatalf("entry does not decode:\n%s", data)
	}
	if !samePoint(got, p) {
		t.Fatalf("round trip changed the point:\n  put %+v\n  got %+v\n%s", p, got, data)
	}
}

var trickySpecs = []string{
	"",
	"TMIN(cube k=4 s=3) global uniform load=0.35 warm=40000 meas=120000 seed=7",
	`a "quoted" spec with \ and spaces`,
	"forged\n1 1 1 1 1 1 1 1 1 true 1 1 1 1 1\n",
	"\"\n" + entryMagic + testKey + "\n",
	"\x00\xff invalid utf-8  ",
}

func TestEntryRoundTrip(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 0.35, 123456.789, 1e21, 1e-7,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.Float64frombits(0x0010000000000000), // smallest normal
		math.Nextafter(1, 2), math.Inf(1), math.Inf(-1), math.NaN(),
	}
	ints := []int64{0, 1, -1, 1000, math.MaxInt64, math.MinInt64}
	for i, v := range floats {
		w := floats[(i+7)%len(floats)]
		m := ints[i%len(ints)]
		checkRoundTrip(t, trickySpecs[i%len(trickySpecs)], metrics.Point{
			Offered: v, OfferedMeasured: w, Throughput: v, LatencyCyc: w, LatencyMs: v,
			LatencyP0: w, LatencyP100: v, StdDev: w, Messages: m, Sustainable: i%2 == 0,
			Replicas: int(int32(m)), LatencyCILo: v, LatencyCIHi: w, ThroughputCILo: v, ThroughputCIHi: w,
		})
	}
}

func FuzzEntryRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(1)<<63, int64(math.MaxInt64), int64(8), true, trickySpecs[3])
	f.Add(math.Float64bits(0.35), math.Float64bits(math.NaN()), int64(-1), int64(0), false, trickySpecs[4])
	f.Add(uint64(1), math.Float64bits(math.Inf(-1)), int64(1000), int64(math.MinInt64), true, "spec")
	f.Fuzz(func(t *testing.T, a, b uint64, messages, replicas int64, sustainable bool, spec string) {
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		checkRoundTrip(t, spec, metrics.Point{
			Offered: x, OfferedMeasured: y, Throughput: -x, LatencyCyc: x * y, LatencyMs: x / 20,
			LatencyP0: y, LatencyP100: x + y, StdDev: math.Sqrt(y), Messages: messages, Sustainable: sustainable,
			Replicas: int(replicas), LatencyCILo: x - y, LatencyCIHi: y, ThroughputCILo: x, ThroughputCIHi: 1 / y,
		})
	})
}

// TestEntryCarriesEveryPointField gives every metrics.Point field its
// own value, so a field added to the struct but not to the codec comes
// back zero, and holds entryFields, the struct's declaration order and
// the order appendEntry writes in to one another.
func TestEntryCarriesEveryPointField(t *testing.T) {
	var p metrics.Point
	v := reflect.ValueOf(&p).Elem()
	var names []string
	for i := 0; i < v.NumField(); i++ {
		names = append(names, v.Type().Field(i).Name)
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i) + 100)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("metrics.Point.%s has kind %s, which the entry codec has no encoding for", names[i], f.Kind())
		}
	}
	if got := strings.Join(names, " "); got != entryFields {
		t.Errorf("entryFields is out of step with metrics.Point:\n  struct %s\n  const  %s", got, entryFields)
	}
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.Put(testKey, "spec", p)
	got, ok := store.Get(testKey)
	if !ok || got != p {
		t.Fatalf("a field of metrics.Point is not carried by the entry codec:\n  put %+v\n  got %+v (ok=%t)", p, got, ok)
	}
	data, err := os.ReadFile(filepath.Join(dir, testKey+entryExt))
	if err != nil {
		t.Fatal(err)
	}
	const wantFile = entryMagic + testKey + "\n" + `"spec"` + "\n" +
		"0.5 1.5 2.5 3.5 4.5 5.5 6.5 7.5 108 true 110 11.5 12.5 13.5 14.5\n"
	if string(data) != wantFile {
		t.Errorf("entry file:\n%s\nwant:\n%s", data, wantFile)
	}
}

// TestEntryDamageIsAMiss: no truncation, no damaged key line and no
// near-miss of the layout may decode — or panic.
func TestEntryDamageIsAMiss(t *testing.T) {
	p := metrics.Point{Offered: 0.35, Throughput: 0.3412, LatencyCyc: 612.25, Messages: 9001, Sustainable: true, Replicas: 3, ThroughputCIHi: 0.5}
	valid := appendEntry(nil, testKey, "a spec", p)
	if _, ok := parseEntry(valid, testKey); !ok {
		t.Fatal("the undamaged entry does not decode")
	}
	for n := 0; n < len(valid); n++ {
		if _, ok := parseEntry(valid[:n], testKey); ok {
			t.Errorf("the %d-byte prefix of a %d-byte entry decoded:\n%s", n, len(valid), valid[:n])
		}
	}
	keyLine := len(entryMagic) + len(testKey) + 1
	damaged := bytes.Clone(valid)
	for i := 0; i < keyLine; i++ {
		for c := 0; c < 256; c++ {
			if byte(c) == valid[i] {
				continue
			}
			damaged[i] = byte(c)
			if _, ok := parseEntry(damaged, testKey); ok {
				t.Errorf("byte %d of the key line changed from %q to %q and the entry still decoded", i, valid[i], byte(c))
			}
		}
		damaged[i] = valid[i]
	}

	head := entryMagic + testKey + "\n"
	fields := "0.35 0 0.3412 612.25 0 0 0 0 9001 true 3 0 0 0 0.5\n"
	if _, ok := parseEntry([]byte(head+`"s"`+"\n"+fields), testKey); !ok {
		t.Fatal("the hand-written entry does not decode")
	}
	for name, data := range map[string]string{
		"empty":             "",
		"legacy json":       `{"key":"` + testKey + `","spec":"s","point":{"Offered":0.35}}`,
		"next version":      strings.Replace(head, "-v1 ", "-v2 ", 1) + `"s"` + "\n" + fields,
		"unquoted spec":     head + "s\n" + fields,
		"no spec line":      head + fields,
		"missing field":     head + `"s"` + "\n" + strings.Replace(fields, " 0.5\n", "\n", 1),
		"extra field":       head + `"s"` + "\n" + strings.Replace(fields, "\n", " 1\n", 1),
		"empty field":       head + `"s"` + "\n" + strings.Replace(fields, " 0 ", "  ", 1),
		"trailing space":    head + `"s"` + "\n" + strings.Replace(fields, "\n", " \n", 1),
		"leading space":     head + `"s"` + "\n " + fields,
		"trailing line":     head + `"s"` + "\n" + fields + "\n",
		"trailing garbage":  head + `"s"` + "\n" + fields + "x",
		"no final newline":  head + `"s"` + "\n" + strings.TrimSuffix(fields, "\n"),
		"capitalised bool":  head + `"s"` + "\n" + strings.Replace(fields, "true", "True", 1),
		"numeric bool":      head + `"s"` + "\n" + strings.Replace(fields, "true", "1", 1),
		"float for int":     head + `"s"` + "\n" + strings.Replace(fields, "9001", "9001.5", 1),
		"int overflow":      head + `"s"` + "\n" + strings.Replace(fields, "9001", "9223372036854775808", 1),
		"not a number":      head + `"s"` + "\n" + strings.Replace(fields, "612.25", "612.2x", 1),
		"tab separated":     head + `"s"` + "\n" + strings.Replace(fields, " ", "\t", 1),
		"crlf":              head + `"s"` + "\n" + strings.Replace(fields, "\n", "\r\n", 1),
		"key line repeated": head + head + `"s"` + "\n" + fields,
	} {
		if _, ok := parseEntry([]byte(data), testKey); ok {
			t.Errorf("%s: decoded\n%s", name, data)
		}
	}
}

// TestLegacyAndLongEntries covers the two ends of the file handling: a
// store left behind by the JSON layout answers nothing and is healed
// by the next Put, and an entry too long for Get's stack buffer is
// read whole.
func TestLegacyAndLongEntries(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := metrics.Point{Offered: 0.3, Throughput: 0.29, LatencyCyc: 55, Messages: 123, Sustainable: true}
	legacy := []byte("{\n  \"key\": \"" + testKey + "\",\n  \"spec\": \"s\",\n  \"point\": {\n    \"Offered\": 0.3\n  }\n}\n")
	// Where the JSON layout kept it, and (a renamed file) where the
	// store looks now.
	for _, name := range []string{testKey + ".json", testKey + entryExt} {
		if err := os.WriteFile(filepath.Join(dir, name), legacy, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := store.Get(testKey); ok {
		t.Fatal("a legacy JSON entry was served")
	}
	store.Put(testKey, "s", p)
	if got, ok := store.Get(testKey); !ok || got != p {
		t.Fatalf("Put over a legacy entry did not heal: %+v ok=%t", got, ok)
	}

	long := strings.Repeat("0:5 3:12 7:1 ", 4*entryBufSize/13)
	store.Put(testKey, long, p)
	if info, err := os.Stat(filepath.Join(dir, testKey+entryExt)); err != nil || info.Size() <= 4*entryBufSize {
		t.Fatalf("the long entry is not long: %v, %v", info, err)
	}
	if got, ok := store.Get(testKey); !ok || got != p {
		t.Fatalf("an entry longer than the read buffer missed: %+v ok=%t", got, ok)
	}
	if st := store.Stats(); st.Hits != 2 || st.Misses != 1 || st.WriteFails != 0 {
		t.Errorf("stats = %+v, want 2 hits, 1 miss, 0 write failures", st)
	}
}

// TestGetOnABareDescriptor mixes 1000 Gets over every kind of file a
// Get can meet — an entry, no file, a directory where the entry should
// be (open succeeds, read fails with EISDIR), a truncated entry, an
// entry longer than the read buffer — and holds each answer to what
// reading the file whole and decoding it gives, the stats to the
// tally, and (on Linux) the descriptors open on the store's directory
// to the one the store holds: no path through readEntry may leak one.
func TestGetOnABareDescriptor(t *testing.T) {
	dir := tempDir(t)
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := metrics.Point{Offered: 0.25, Throughput: 0.2431, LatencyCyc: 88.5, Messages: 4242, Sustainable: true, Replicas: 2}
	trace := strings.Repeat("12:5 3:40 63:1 ", 3*entryBufSize/15) // a trace spec: the entry outgrows the buffer
	kinds := []string{"hit", "long", "absent", "directory", "truncated"}
	keys := make([]string, len(kinds))
	for i, kind := range kinds {
		keys[i] = fmt.Sprintf("%064x", i+1)
		path := filepath.Join(dir, keys[i]+entryExt)
		switch kind {
		case "hit":
			store.Put(keys[i], "a spec", p)
		case "long":
			store.Put(keys[i], trace, p)
		case "directory":
			err = os.Mkdir(path, 0o755)
		case "truncated":
			entry := appendEntry(nil, keys[i], "a spec", p)
			err = os.WriteFile(path, entry[:len(entry)-7], 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	want := func(key string) (metrics.Point, bool) {
		data, err := os.ReadFile(filepath.Join(dir, key+entryExt))
		if err != nil {
			return metrics.Point{}, false
		}
		return parseEntry(data, key)
	}
	var hits, misses int64
	for i := 0; i < 1000; i++ {
		k := (i * 7) % len(kinds)
		got, ok := store.Get(keys[k])
		wantP, wantOK := want(keys[k])
		if ok != wantOK || got != wantP || ok != (kinds[k] == "hit" || kinds[k] == "long") {
			t.Fatalf("Get #%d (%s) = %+v, %t; reading the file whole gives %+v, %t", i, kinds[k], got, ok, wantP, wantOK)
		}
		if ok {
			hits++
		} else {
			misses++
		}
	}
	if st := store.Stats(); st.Hits != hits || st.Misses != misses {
		t.Errorf("stats = %+v, want %d hits and %d misses", st, hits, misses)
	}
	if runtime.GOOS == "linux" {
		if self, inside := descriptorsIn(t, dir); self != 1 || inside != 0 {
			t.Errorf("after 1000 Gets, %d descriptors name the store's directory (want the store's 1) and %d name a file in it (want 0)", self, inside)
		}
	}
}

// tempDir is t.TempDir with its symbolic links resolved, so that it
// reads as /proc/self/fd spells it.
func tempDir(t *testing.T) string {
	t.Helper()
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// descriptorsIn counts this process's open descriptors that name dir
// itself and those that name a file in it (Linux, from /proc/self/fd).
// Only dir's are counted: another test's dropped store may have its
// directory closed by the collector at any moment, so a count of every
// descriptor in the process moves on its own.
func descriptorsIn(t *testing.T, dir string) (self, inside int) {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		target, err := os.Readlink("/proc/self/fd/" + e.Name())
		switch {
		case err != nil: // closed since the listing, as the listing's own is
		case target == dir:
			self++
		case strings.HasPrefix(target, dir+"/"):
			inside++
		}
	}
	return self, inside
}
