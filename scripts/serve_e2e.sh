#!/usr/bin/env bash
# End-to-end gate for the simulation service, minsim serve, run by the
# CI job serve-e2e and runnable locally (./scripts/serve_e2e.sh). It
# proves the four hardening properties the service promises:
#
#   1. a quick figure panel served over HTTP,
#   2. the warm repeat of the same request executes 0 simulations
#      (content-addressed cache shared across requests),
#   3. a saturated bounded queue answers 429 with a Retry-After hint,
#   4. SIGTERM drains in-flight jobs and exits 0.
#
# On failure, logs are copied to $E2E_ARTIFACT_DIR (if set) so CI can
# upload them as artifacts.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${SIMD_PORT:-18080}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d)"
SIMD_PID=""
cleanup() {
  rc=$?
  if [ "$rc" -ne 0 ] && [ -n "${E2E_ARTIFACT_DIR:-}" ]; then
    mkdir -p "$E2E_ARTIFACT_DIR"
    cp "$WORK"/*.log "$E2E_ARTIFACT_DIR"/ 2>/dev/null || true
  fi
  [ -n "$SIMD_PID" ] && kill -9 "$SIMD_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build"
go build -o "$WORK/minsim" ./cmd/minsim

echo "== boot"
"$WORK/minsim" serve -addr "127.0.0.1:$PORT" -cache "$WORK/cache" \
  -queue 1 -job-workers 1 -drain-timeout 2s 2> "$WORK/simd.log" &
SIMD_PID=$!
for _ in $(seq 1 100); do
  curl -fsS "$BASE/healthz" > /dev/null 2>&1 && break
  if ! kill -0 "$SIMD_PID" 2>/dev/null; then
    echo "minsim serve died during boot"; cat "$WORK/simd.log"; exit 1
  fi
  sleep 0.1
done
curl -fsS "$BASE/healthz"

PANEL='{"figures":["fig16a"],"budget":{"preset":"quick"}}'

echo "== cold run"
cold=$(curl -fsS -X POST "$BASE/v1/run" -d "$PANEL")
echo "$cold" | grep -o '"counters":{[^}]*}'
echo "$cold" | grep -q '"status":"done"' || { echo "cold run not done"; exit 1; }
echo "$cold" | grep -q '"executed":[1-9]' || { echo "cold run executed nothing"; exit 1; }

echo "== warm run (must execute 0 points)"
warm=$(curl -fsS -X POST "$BASE/v1/run" -d "$PANEL")
echo "$warm" | grep -o '"counters":{[^}]*}'
echo "$warm" | grep -q '"executed":0' || { echo "warm run re-executed points"; exit 1; }

# A replicated panel (replicas > 1) must flow end to end: the cold run
# executes only the non-replica-0 points (replica 0 shares the plain
# panel's cache entries, which the quick run above already wrote), the
# points carry replica counts, and the warm repeat is fully cached.
RPANEL='{"figures":["fig16a"],"budget":{"preset":"quick","replicas":2}}'

echo "== replicated cold run (replica 0 cached, replica 1 executes)"
rcold=$(curl -fsS -X POST "$BASE/v1/run" -d "$RPANEL")
echo "$rcold" | grep -o '"counters":{[^}]*}'
echo "$rcold" | grep -q '"status":"done"' || { echo "replicated run not done"; exit 1; }
echo "$rcold" | grep -q '"executed":[1-9]' || { echo "replicated run executed nothing"; exit 1; }
echo "$rcold" | grep -q '"cached":[1-9]' || { echo "replicated run reused no replica-0 entries"; exit 1; }
echo "$rcold" | grep -q '"Replicas":2' || { echo "replicated points lack replica counts"; exit 1; }

echo "== replicated warm run (must execute 0 points)"
rwarm=$(curl -fsS -X POST "$BASE/v1/run" -d "$RPANEL")
echo "$rwarm" | grep -o '"counters":{[^}]*}'
echo "$rwarm" | grep -q '"executed":0' || { echo "replicated warm run re-executed points"; exit 1; }

# A bursty MMPP panel proves the arrival axis flows through the wire
# schema end to end: the cold run simulates, the warm repeat is served
# entirely from the cache (arrival parameters are part of the content
# key).
MMPP='{"experiments":[{"id":"mmpp-panel","loads":[0.1,0.2],"curves":[{"label":"tmin-mmpp","network":{"kind":"tmin","k":4,"stages":2},"workload":{"pattern":"uniform","arrival":"mmpp","burst":8,"dwellhi":200,"dwelllo":800}}]}],"budget":{"preset":"quick"}}'

echo "== bursty MMPP cold run"
mcold=$(curl -fsS -X POST "$BASE/v1/run" -d "$MMPP")
echo "$mcold" | grep -o '"counters":{[^}]*}'
echo "$mcold" | grep -q '"status":"done"' || { echo "mmpp run not done"; exit 1; }
echo "$mcold" | grep -q '"executed":[1-9]' || { echo "mmpp run executed nothing"; exit 1; }

echo "== bursty MMPP warm run (must execute 0 points)"
mwarm=$(curl -fsS -X POST "$BASE/v1/run" -d "$MMPP")
echo "$mwarm" | grep -o '"counters":{[^}]*}'
echo "$mwarm" | grep -q '"executed":0' || { echo "mmpp warm run re-executed points"; exit 1; }

# A slow job (3M cycles/point on a small net) pins the single worker
# so the depth-1 queue can be saturated deterministically.
SLOW='{"experiments":[{"id":"slow","loads":[0.1,0.2],"curves":[{"label":"t","network":{"kind":"tmin","k":4,"stages":2},"workload":{"pattern":"uniform"}}]}],"budget":{"warmup":200,"measure":3000000}}'

echo "== saturate the queue (expect 429 + Retry-After)"
slow_id=$(curl -fsS -X POST "$BASE/v1/jobs" -d "$SLOW" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
for _ in $(seq 1 100); do
  curl -fsS "$BASE/v1/jobs/$slow_id" | grep -q '"status":"running"' && break
  sleep 0.1
done
curl -fsS -X POST "$BASE/v1/jobs" -d "$SLOW" > /dev/null # fills the depth-1 queue
headers=$(curl -s -D - -o /dev/null -X POST "$BASE/v1/jobs" -d "$SLOW")
echo "$headers" | head -1
echo "$headers" | grep -q ' 429' || { echo "saturated queue did not return 429"; exit 1; }
echo "$headers" | grep -qi '^retry-after:' || { echo "429 lacked Retry-After"; exit 1; }

echo "== metrics surface"
metrics=$(curl -fsS "$BASE/metrics")
echo "$metrics" | grep -q '^simd_jobs_total{status="rejected"} 1$' \
  || { echo "rejected counter wrong"; echo "$metrics"; exit 1; }
echo "$metrics" | grep -q '^simd_points_cached_total' || { echo "missing cache metrics"; exit 1; }
echo "$metrics" | grep -q '^simd_queue_depth' || { echo "missing queue metrics"; exit 1; }

echo "== SIGTERM drains and exits 0"
kill -TERM "$SIMD_PID"
rc=0
wait "$SIMD_PID" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "minsim serve exited $rc after SIGTERM"; cat "$WORK/simd.log"; exit 1
fi
SIMD_PID=""

echo "== request log is structured JSON"
grep -q '"method":"POST","path":"/v1/run","status":200' "$WORK/simd.log" \
  || { echo "missing structured request log"; cat "$WORK/simd.log"; exit 1; }

echo "serve-e2e: all checks passed"
