package kary

import (
	"slices"
	"testing"
)

func TestPermValidity(t *testing.T) {
	r := MustNew(4, 3)
	perms := map[string]Perm{
		"identity": r.IdentityPerm(),
		"shuffle":  r.ShufflePerm(),
		"beta0":    r.ButterflyPerm(0),
		"beta1":    r.ButterflyPerm(1),
		"beta2":    r.ButterflyPerm(2),
	}
	for name, p := range perms {
		if !p.Valid() {
			t.Errorf("%s is not a valid permutation", name)
		}
	}
	if !perms["identity"].Fixed() {
		t.Error("identity should be Fixed")
	}
	if !perms["beta0"].Fixed() {
		t.Error("β_0 should be the identity")
	}
	if perms["shuffle"].Fixed() {
		t.Error("shuffle should not be the identity")
	}
}

func TestPermInverse(t *testing.T) {
	r := MustNew(4, 3)
	inv := r.ShufflePerm().Inverse()
	for x, v := range inv {
		if v != r.Unshuffle(x) {
			t.Fatalf("Inverse(σ)(%d) = %d, σ^{-1}(%d) = %d", x, v, x, r.Unshuffle(x))
		}
	}
	for i := 0; i < r.N(); i++ {
		b := r.ButterflyPerm(i)
		if !slices.Equal(b.Inverse(), b) {
			t.Errorf("β_%d should be self-inverse", i)
		}
	}
}

func TestPermCompose(t *testing.T) {
	r := MustNew(2, 3)
	s := r.ShufflePerm()
	// σ composed with σ^{-1} is the identity.
	if !s.Compose(s.Inverse()).Fixed() {
		t.Error("σ∘σ^{-1} != identity")
	}
	// Composing σ with itself n times is the identity.
	c := r.IdentityPerm()
	for i := 0; i < r.N(); i++ {
		c = c.Compose(s)
	}
	if !c.Fixed() {
		t.Error("σ^n != identity")
	}
}

func TestInvalidPerm(t *testing.T) {
	if (Perm{0, 0, 1}).Valid() {
		t.Error("duplicate image accepted")
	}
	if (Perm{0, 3, 1}).Valid() {
		t.Error("out-of-range image accepted")
	}
	if !(Perm{}).Valid() {
		t.Error("empty permutation should be valid")
	}
	defer func() {
		if recover() == nil {
			t.Error("Inverse of invalid permutation did not panic")
		}
	}()
	_ = (Perm{0, 0}).Inverse()
}

func TestComposeSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Compose with mismatched sizes did not panic")
		}
	}()
	_ = (Perm{0}).Compose(Perm{0, 1})
}
