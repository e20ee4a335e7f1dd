package kary

import "testing"

// FuzzDigitRoundTrip fuzzes the digit codec and permutation
// involutions over arbitrary radix spaces.
func FuzzDigitRoundTrip(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint16(5))
	f.Add(uint8(4), uint8(3), uint16(27))
	f.Add(uint8(8), uint8(2), uint16(63))
	f.Fuzz(func(t *testing.T, kRaw, nRaw uint8, xRaw uint16) {
		k := int(kRaw)%15 + 2 // 2..16
		n := int(nRaw)%4 + 1  // 1..4
		r, err := New(k, n)
		if err != nil {
			t.Skip()
		}
		x := int(xRaw) % r.Size()
		if got := r.FromDigits(r.Digits(x)); got != x {
			t.Fatalf("k=%d n=%d: digits round trip %d -> %d", k, n, x, got)
		}
		for i := 0; i < n; i++ {
			if got := r.Butterfly(i, r.Butterfly(i, x)); got != x {
				t.Fatalf("β_%d not involutive at %d", i, x)
			}
			if got, want := r.Butterfly(i, x), r.SwapDigits(x, 0, i); got != want {
				t.Fatalf("k=%d: β_%d(%d) = %d, swapping digits 0 and %d gives %d", k, i, x, got, i, want)
			}
			v := r.Digit(x, i)
			if got := r.InsertDigit(r.DeleteDigit(x, i), i, v); got != x {
				t.Fatalf("delete/insert digit %d broken at %d", i, x)
			}
		}
		if got := r.Unshuffle(r.Shuffle(x)); got != x {
			t.Fatalf("shuffle round trip broken at %d", x)
		}
		for m := 1; m <= n; m++ {
			y := r.RotateLowRight(x, m)
			if got := r.RotateLowLeft(y, m); got != x {
				t.Fatalf("RotateLowLeft(RotateLowRight(%d, %d)) = %d", x, m, got)
			}
			// Rotating m times in a block of size m is the identity.
			z := x
			for i := 0; i < m; i++ {
				z = r.RotateLowRight(z, m)
			}
			if z != x {
				t.Fatalf("RotateLowRight^%d != identity at %d (first %d)", m, x, y)
			}
		}
	})
}

// FuzzFirstDifference checks Definition 3's characterization against
// a direct digit scan.
func FuzzFirstDifference(f *testing.F) {
	f.Add(uint16(1), uint16(5))
	f.Add(uint16(21), uint16(37))
	f.Fuzz(func(t *testing.T, sRaw, dRaw uint16) {
		r := MustNew(4, 3)
		s := int(sRaw) % r.Size()
		d := int(dRaw) % r.Size()
		got, ok := r.FirstDifference(s, d)
		if s == d {
			if ok {
				t.Fatalf("FirstDifference(%d, %d) reported a difference", s, d)
			}
			return
		}
		if !ok {
			t.Fatalf("FirstDifference(%d, %d) reported equality", s, d)
		}
		if r.Digit(s, got) == r.Digit(d, got) {
			t.Fatalf("digit %d of %d and %d equal", got, s, d)
		}
		for i := got + 1; i < r.N(); i++ {
			if r.Digit(s, i) != r.Digit(d, i) {
				t.Fatalf("digit %d above t=%d differs", i, got)
			}
		}
	})
}
