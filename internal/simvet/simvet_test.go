package simvet

import (
	"path/filepath"
	"testing"
)

// Each analyzer must fire on its seeded-violation fixture and stay
// quiet on the fixture's legitimate patterns. Each fixture is a
// multi-package module whose violations are reported through exported
// facts.

func TestKeyPurityFixture(t *testing.T) { runFixture(t, "keypurity", KeyPurity) }

func TestWireStableFixture(t *testing.T) { runFixture(t, "wirestable", WireStable) }

func TestLockScopeFixture(t *testing.T) { runFixture(t, "lockscope", LockScope) }

func TestCtxFlowFixture(t *testing.T) { runFixture(t, "ctxflow", CtxFlow) }

// TestWireLockTextStable re-derives the wirestable fixture's lock text
// twice, the second time from a fresh load, and requires identical
// bytes: `-writewire` must never produce a spurious diff.
func TestWireLockTextStable(t *testing.T) {
	dir := filepath.Join("testdata", "wirestable")
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	first, err := WireLockText(mod)
	if err != nil {
		t.Fatalf("first derivation: %v", err)
	}
	again, err := WireLockText(mod)
	if err != nil {
		t.Fatalf("second derivation: %v", err)
	}
	if first != again {
		t.Errorf("WireLockText unstable across runs on one module:\n%q\nvs\n%q", first, again)
	}
	fresh, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("reloading fixture: %v", err)
	}
	second, err := WireLockText(fresh)
	if err != nil {
		t.Fatalf("derivation from fresh load: %v", err)
	}
	if first != second {
		t.Errorf("WireLockText unstable across loads:\n%q\nvs\n%q", first, second)
	}
}

// TestRepoInvariantsClean runs the whole suite over the real module —
// the same gate as `go run ./cmd/simvet ./...` and the simvet CI job,
// enforced from `go test ./...` as well so the invariants hold even
// where only the tier-1 command runs.
func TestRepoInvariantsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module (plus stdlib from source); skipped in -short")
	}
	mod, err := LoadModule("../..")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := RunAnalyzers(mod, All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
