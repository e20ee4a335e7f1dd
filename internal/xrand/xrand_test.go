package xrand

import (
	"math"
	"slices"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d identical draws of 1000", same)
	}
}

func TestIntnRange(t *testing.T) {
	src := New(1)
	for _, n := range []int{1, 2, 3, 7, 64, 1000} {
		for i := 0; i < 2000; i++ {
			v := src.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	src := New(7)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[src.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: %d draws, want about %.0f", i, c, want)
		}
	}
}

func TestIntRange(t *testing.T) {
	src := New(2)
	for i := 0; i < 5000; i++ {
		v := src.IntRange(8, 1024)
		if v < 8 || v > 1024 {
			t.Fatalf("IntRange(8, 1024) = %d", v)
		}
	}
	if got := src.IntRange(5, 5); got != 5 {
		t.Errorf("IntRange(5,5) = %d", got)
	}
}

func TestFloat64Range(t *testing.T) {
	src := New(3)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := src.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want about 0.5", mean)
	}
}

func TestExpMean(t *testing.T) {
	src := New(4)
	const mean, draws = 50.0, 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		v := src.Exp(mean)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	got := sum / draws
	if math.Abs(got-mean)/mean > 0.02 {
		t.Errorf("Exp mean = %v, want about %v", got, mean)
	}
}

func TestPerm(t *testing.T) {
	src := New(5)
	var buf []int
	for _, n := range []int{0, 1, 2, 10, 100} {
		buf = src.Perm(buf, n)
		if len(buf) != n {
			t.Fatalf("Perm length %d, want %d", len(buf), n)
		}
		seen := make([]bool, n)
		for _, v := range buf {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) not a permutation: %v", n, buf)
			}
			seen[v] = true
		}
	}
}

// TestDrawSequencePinned compares Intn and Perm streams against a
// table generated before Intn's 128-bit product moved to bits.Mul64:
// every simulated statistic downstream depends on these draws bit for
// bit. 1<<63 - 1 stands in for a 2^63 bound, which an int cannot hold.
func TestDrawSequencePinned(t *testing.T) {
	for _, tc := range []struct {
		bound int
		want  []int
	}{
		{1, []int{0, 0, 0, 0, 0, 0}},
		{2, []int{0, 0, 1, 1, 0, 0}},
		{3, []int{0, 0, 1, 2, 1, 0}},
		{64, []int{19, 11, 33, 42, 21, 15}},
		{1<<32 + 1, []int{1291743126, 790445708, 2247216918, 2882713500, 1458320365, 1020478888}},
		{1 << 62, []int{1386998620728476521, 848734616708051321, 2412930792317932031, 3095290050963242505, 1565859569363942649, 1095730863181773515}},
		{1<<63 - 1, []int{2773997241456953041, 1697469233416102641, 4825861584635864062, 6190580101926485010, 3131719138727885298, 2191461726363547030}},
	} {
		src := New(1995)
		for i, want := range tc.want {
			if got := src.Intn(tc.bound); got != want {
				t.Errorf("Intn(%d) draw %d = %d, want %d", tc.bound, i, got, want)
			}
		}
	}
	src := New(1995)
	for _, want := range [][]int{
		{15, 11, 3, 13, 7, 6, 4, 2, 8, 9, 1, 5, 10, 14, 0, 12},
		{4, 2, 0, 3, 1},
	} {
		got := src.Perm(nil, len(want))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Perm(%d) = %v, want %v", len(want), got, want)
			}
		}
	}
	if got, want := src.Uint64(), uint64(2994797721334147285); got != want {
		t.Errorf("Uint64 after the two Perms = %d, want %d (a Perm consumed a different number of draws)", got, want)
	}

	// Perm writes Intn's draw out inline; it must stay the Fisher-Yates
	// loop over Intn draw for draw, and leave the generator where that
	// loop leaves it, whatever storage it is handed.
	for _, n := range []int{0, 1, 2, 3, 64, 1000, 1 << 16} {
		for _, seed := range []uint64{0, 1, 1995, 1<<64 - 1} {
			ref := New(seed)
			want := make([]int, n)
			for i := range want {
				j := ref.Intn(i + 1)
				want[i] = want[j]
				want[j] = i
			}
			var after [4]uint64
			for i := range after {
				after[i] = ref.Uint64()
			}
			spare := make([]int, n/2, 2*n+3)
			for i := range spare {
				spare[i] = -1 - i // stale contents must not show through
			}
			for _, tc := range []struct {
				name string
				dst  []int
			}{
				{"nil", nil},
				{"exact capacity", make([]int, 0, n)},
				{"spare capacity", spare},
				{"too small", make([]int, n/3)},
			} {
				name, dst := tc.name, tc.dst
				src := New(seed)
				got := src.Perm(dst, n)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d, dst %s: Perm(%d) differs from the Intn loop", seed, name, n)
				}
				if cap(dst) >= n && n > 0 && &got[0] != &dst[:1][0] {
					t.Errorf("seed %d, dst %s: Perm(%d) did not reuse dst's storage", seed, name, n)
				}
				for i, w := range after {
					if g := src.Uint64(); g != w {
						t.Fatalf("seed %d, dst %s: Uint64 %d after Perm(%d) = %d, want %d", seed, name, i, n, g, w)
					}
				}
			}
		}
	}
}

func TestPermFairness(t *testing.T) {
	// Each element should appear in each position about equally often.
	src := New(6)
	const n, rounds = 4, 40000
	counts := [n][n]int{}
	var buf []int
	for r := 0; r < rounds; r++ {
		buf = src.Perm(buf, n)
		for pos, v := range buf {
			counts[pos][v]++
		}
	}
	want := float64(rounds) / n
	for pos := 0; pos < n; pos++ {
		for v := 0; v < n; v++ {
			if math.Abs(float64(counts[pos][v])-want) > 6*math.Sqrt(want) {
				t.Errorf("position %d value %d: %d, want about %.0f", pos, v, counts[pos][v], want)
			}
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	a := New(9)
	b := a.Split()
	// The split stream should not equal the parent's continuation.
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split stream matches parent %d/1000 times", same)
	}
}

func TestPanics(t *testing.T) {
	src := New(10)
	for name, f := range map[string]func(){
		"Intn(0)":      func() { src.Intn(0) },
		"IntRange bad": func() { src.IntRange(2, 1) },
		"Exp(0)":       func() { src.Exp(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// unstep is the inverse of one Uint64 step: it returns the state whose
// step leads to s. The step sets s3 to rotl(s3^s1, 45), s0 to
// s0^s3^s1, s1 to s1^s2^s0 and s2 to s2^s0^s1<<17, so s1 is
// recovered from the xor of the last two, x ^ x<<17.
func unstep(s [4]uint64) [4]uint64 {
	x := s[3]<<19 | s[3]>>45 // s3^s1 before the step
	s0 := s[0] ^ x
	y := s[1] ^ s[2] // s1 ^ s1<<17
	s1 := y ^ y<<17 ^ y<<34 ^ y<<51
	return [4]uint64{s0, s1, s[1] ^ s1 ^ s0, x ^ s1}
}

// forcedZero returns a state from which the draw numbered step (from
// 0) returns 0: the state before it has s[1] = 0, and Uint64's output
// is rotl(s[1]*5, 7)*9. A zero draw multiplies to lo = 0, which a bound
// that is not a power of two rejects, since 2^64 mod bound is then
// above 0.
func forcedZero(seed uint64, step int) Source {
	src := seeded(seed)
	src.s[1] = 0
	if src.s[0]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 1
	}
	for range step {
		src.s = unstep(src.s)
	}
	return src
}

// checkPermAgainstIntnLoop runs Perm(n) and the Intn loop it stands for
// from the same state and fails unless both fill the same permutation
// and leave the same state; it returns how many draws the loop took.
func checkPermAgainstIntnLoop(t *testing.T, start Source, n int) int {
	t.Helper()
	ref, counter := start, start
	want := make([]int, n)
	for i := range want {
		j := ref.Intn(i + 1)
		want[i] = want[j]
		want[j] = i
	}
	draws := 0
	for ; counter.s != ref.s; draws++ {
		if draws > 2*n+2 {
			t.Fatalf("the Intn loop over %d took more than %d draws", n, draws)
		}
		counter.Uint64()
	}
	src := start
	if got := src.Perm(nil, n); !slices.Equal(got, want) {
		t.Fatalf("Perm(%d) = %v, the Intn loop %v", n, got, want)
	}
	if src.s != ref.s {
		t.Fatalf("Perm(%d) leaves state %x, the Intn loop %x", n, src.s, ref.s)
	}
	return draws
}

// TestPermRejects takes Intn and Perm through the rejection branch,
// which the pinned draw sequences never reach: at bound i+1 a draw is
// rejected with odds (2^64 mod (i+1))/2^64, below 2^-62 for every bound
// they use. A draw forced to 0 at Perm's step i is rejected whenever
// i+1 is not a power of two, and both must then draw again for the same
// bound, step for step.
func TestPermRejects(t *testing.T) {
	for s := range [4]uint64{} {
		st := [4]uint64{1995, 1 << 63, 0x9e3779b97f4a7c15, 7}
		st[s] ^= 0xdeadbeef
		src := Source{st}
		src.Uint64()
		if got := unstep(src.s); got != st {
			t.Fatalf("unstep(step(%x)) = %x", st, got)
		}
	}

	src := forcedZero(1995, 0)
	if v := src.Uint64(); v != 0 {
		t.Fatalf("the forced draw is %d, not 0", v)
	}
	src = forcedZero(1995, 0)
	after := forcedZero(1995, 0)
	after.Uint64()
	want := after.Intn(3)
	if got := src.Intn(3); got != want || src.s != after.s {
		t.Errorf("Intn(3) on a zero draw = %d, leaving %x; want the next draw's %d, leaving %x", got, src.s, want, after.s)
	}

	for _, tc := range []struct{ step, n int }{
		{2, 3}, {2, 4}, {2, 64}, {4, 6}, {5, 64}, {6, 7}, {62, 64}, {63, 64}, {100, 1000}, {999, 1000},
	} {
		rejects := 1
		if b := tc.step + 1; b&(b-1) == 0 {
			rejects = 0 // 2^64 mod b is 0: a zero draw stands
		}
		if draws := checkPermAgainstIntnLoop(t, forcedZero(1995, tc.step), tc.n); draws != tc.n+rejects {
			t.Errorf("zero draw at step %d of Perm(%d): the Intn loop took %d draws, want %d", tc.step, tc.n, draws, tc.n+rejects)
		}
	}
}

// FuzzPermMatchesIntnLoop holds Perm to the Intn loop for any seed, any
// length up to 4096 and a draw forced to 0 at any step, inside the
// permutation (rejected unless its bound is a power of two) or past it.
func FuzzPermMatchesIntnLoop(f *testing.F) {
	f.Add(uint64(1995), uint16(64), uint16(2))
	f.Add(uint64(0), uint16(3), uint16(2))
	f.Add(uint64(1<<64-1), uint16(4096), uint16(4000))
	f.Add(uint64(7), uint16(1), uint16(9))
	f.Fuzz(func(t *testing.T, seed uint64, n, step uint16) {
		checkPermAgainstIntnLoop(t, forcedZero(seed, int(step)%4097), int(n)%4097)
	})
}
