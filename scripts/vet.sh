#!/usr/bin/env bash
# One-command local mirror of the CI static-analysis gates, runnable
# without make: the repo's own static check, simvet (keypurity), then
# the pinned third-party linters from the lint job — staticcheck's SA
# class and govulncheck.
# The pins below MUST match .github/workflows/ci.yml; bump both
# together. The third-party tools need network to install, so when
# `go install` cannot fetch them (offline sandbox) those steps are
# skipped with a warning instead of failing the run — simvet itself is
# stdlib-only and always runs.
set -euo pipefail
cd "$(dirname "$0")/.."

STATICCHECK_VERSION="2025.1.1"
GOVULNCHECK_VERSION="v1.1.4"

echo "== go vet"
go vet ./...

echo "== simvet (keypurity)"
go run ./cmd/simvet ./...

GOBIN="$(mktemp -d)"
export GOBIN
trap 'rm -rf "$GOBIN"' EXIT

echo "== staticcheck @$STATICCHECK_VERSION (SA class)"
if go install "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION" 2>/dev/null; then
  "$GOBIN/staticcheck" -checks 'SA*' ./...
else
  echo "WARN: could not install staticcheck (offline?); skipped" >&2
fi

echo "== govulncheck @$GOVULNCHECK_VERSION"
if go install "golang.org/x/vuln/cmd/govulncheck@$GOVULNCHECK_VERSION" 2>/dev/null; then
  "$GOBIN/govulncheck" ./...
else
  echo "WARN: could not install govulncheck (offline?); skipped" >&2
fi

echo "== vet.sh clean"
