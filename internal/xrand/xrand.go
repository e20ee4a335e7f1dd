// Package xrand provides a small, fast, deterministic pseudo-random
// number generator (xoshiro256**, seeded through splitmix64) plus the
// distribution draws the simulator needs: uniform integers,
// floating-point uniforms, exponential interarrival times and
// permutations. Determinism under a fixed seed is required so that
// simulation experiments are exactly reproducible.
package xrand

import (
	"math"
	"math/bits"
	"slices"
)

// Source is a xoshiro256** generator. The zero value is invalid;
// construct with New.
type Source struct {
	s [4]uint64
}

// splitmix64 advances a splitmix64 state and returns the next output.
// It is used only to expand a seed into the xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds give
// independent-looking streams; equal seeds give identical streams.
func New(seed uint64) *Source {
	src := seeded(seed)
	return &src
}

// seeded expands seed into a xoshiro state.
func seeded(seed uint64) Source {
	var src Source
	sm := seed
	for i := range src.s {
		src.s[i] = splitmix64(&sm)
	}
	// A state of all zeros is the single invalid xoshiro state; the
	// splitmix expansion cannot produce it, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 1
	}
	return src
}

// Split derives a new independent Source from the current one. It is
// used to give every traffic generator its own stream so adding a
// consumer does not perturb the draws seen by others. The child is
// returned by value, so a table of per-node streams is one allocation.
func (src *Source) Split() Source {
	return seeded(src.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits.
func (src *Source) Uint64() uint64 {
	s := &src.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method keeps the draw unbiased.
func (src *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	bound := uint64(n)
	hi, lo := bits.Mul64(src.Uint64(), bound)
	if lo < bound {
		hi = src.reject(hi, lo, bound)
	}
	return int(hi)
}

// reject finishes a draw below bound whose 128-bit product with bound
// has the low half lo < bound: the draw stands unless lo is also below
// 2^64 mod bound, and each rejection multiplies a fresh Uint64. The
// modulus is a division, so it is paid only here; the odds of coming
// here at all are bound/2^64 per draw, so it is kept out of line.
//
//go:noinline
func (src *Source) reject(hi, lo, bound uint64) uint64 {
	for thresh := -bound % bound; lo < thresh; {
		hi, lo = bits.Mul64(src.Uint64(), bound)
	}
	return hi
}

// IntRange returns a uniform integer in [lo, hi] inclusive.
func (src *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntRange with hi < lo")
	}
	return lo + src.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (src *Source) Float64() float64 {
	return float64(src.Uint64()>>11) * (1.0 / (1 << 53))
}

// Exp returns an exponentially distributed value with the given mean.
// It panics if mean <= 0.
func (src *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("xrand: Exp with mean <= 0")
	}
	for {
		u := src.Float64()
		if u > 0 {
			return -mean * math.Log(u)
		}
	}
}

// Perm fills a permutation of [0, n) into dst (reusing its backing
// storage when cap allows) using Fisher-Yates, and returns it.
//
// It is the loop `j := src.Intn(i + 1); dst[i] = dst[j]; dst[j] = i`
// for i in [0, n), draw for draw: the engine shuffles its worms with it
// every cycle, so Uint64 and Intn are written out here two draws to an
// iteration, with the generator state held in locals across the loop
// and stored only around the rare reject. TestDrawSequencePinned holds
// it to that loop's output and to the state it leaves behind, and
// TestPermRejects does so through a rejected draw.
func (src *Source) Perm(dst []int, n int) []int {
	dst = slices.Grow(dst[:0], n)[:n]
	s0, s1, s2, s3 := src.s[0], src.s[1], src.s[2], src.s[3]
	i := 0
	for ; i+1 < n; i += 2 {
		bound := uint64(i + 1)
		v := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		hi, lo := bits.Mul64(v, bound)
		if lo < bound {
			src.s = [4]uint64{s0, s1, s2, s3}
			hi = src.reject(hi, lo, bound)
			s0, s1, s2, s3 = src.s[0], src.s[1], src.s[2], src.s[3]
		}
		dst[i] = dst[hi]
		dst[hi] = i

		bound++
		v = rotl(s1*5, 7) * 9
		t = s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		hi, lo = bits.Mul64(v, bound)
		if lo < bound {
			src.s = [4]uint64{s0, s1, s2, s3}
			hi = src.reject(hi, lo, bound)
			s0, s1, s2, s3 = src.s[0], src.s[1], src.s[2], src.s[3]
		}
		dst[i+1] = dst[hi]
		dst[hi] = i + 1
	}
	src.s = [4]uint64{s0, s1, s2, s3}
	if i < n { // n odd: the last draw
		j := src.Intn(n)
		dst[i] = dst[j]
		dst[j] = i
	}
	return dst
}
