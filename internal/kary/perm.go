package kary

import "fmt"

// Perm is a permutation over [0, Size()) represented as a mapping
// table: Perm[i] is the image of i. Interstage connection patterns and
// permutation traffic patterns are both Perms.
type Perm []int

// IdentityPerm returns the identity permutation over the address space.
func (r Radix) IdentityPerm() Perm {
	p := make(Perm, r.size)
	for i := range p {
		p[i] = i
	}
	return p
}

// ButterflyPerm returns β_i^k as a table.
func (r Radix) ButterflyPerm(i int) Perm {
	p := make(Perm, r.size)
	for x := range p {
		p[x] = r.Butterfly(i, x)
	}
	return p
}

// ShufflePerm returns the perfect k-shuffle σ as a table.
func (r Radix) ShufflePerm() Perm {
	p := make(Perm, r.size)
	for x := range p {
		p[x] = r.Shuffle(x)
	}
	return p
}

// Valid reports whether p is a bijection over its index range.
func (p Perm) Valid() bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Inverse returns the inverse permutation. It panics if p is not a
// valid permutation.
func (p Perm) Inverse() Perm {
	if !p.Valid() {
		panic("kary: Inverse of invalid permutation")
	}
	inv := make(Perm, len(p))
	for i, v := range p {
		inv[v] = i
	}
	return inv
}

// Compose returns the permutation q∘p, i.e. first apply p then q.
// p and q must have equal length.
func (p Perm) Compose(q Perm) Perm {
	if len(p) != len(q) {
		panic(fmt.Sprintf("kary: composing permutations of different sizes %d and %d", len(p), len(q)))
	}
	c := make(Perm, len(p))
	for i := range p {
		c[i] = q[p[i]]
	}
	return c
}

// Fixed reports whether p is the identity.
func (p Perm) Fixed() bool {
	for i, v := range p {
		if i != v {
			return false
		}
	}
	return true
}
