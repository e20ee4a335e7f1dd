#!/usr/bin/env bash
# End-to-end gate for the distributed fleet, run by the CI job
# fleet-e2e and runnable locally (./scripts/fleet_e2e.sh). It boots
# a real coordinator (minsim coordinate) plus two real workers
# (minsim serve -coordinator) and proves the three distribution
# properties the fleet promises:
#
#   1. a cold panel is sharded across the fleet: both workers execute
#      at least one point, no key executes twice (executed == unique,
#      zero duplicate executions),
#   2. kill -9 of a worker holding a lease mid-job requeues the lease
#      after its TTL and the surviving worker completes the job,
#   3. a warm rerun of the cold panel executes 0 points fleet-wide —
#      the shared content-addressed store answers everything.
#
# Along the way it checks that idle workers wait in held lease calls
# (fleet_lease_waiters = 2).
#
# On failure, logs are copied to $E2E_ARTIFACT_DIR (if set) so CI can
# upload them as artifacts.
set -euo pipefail
cd "$(dirname "$0")/.."

COORD_PORT="${SIMFLEET_PORT:-18090}"
W1_PORT=$((COORD_PORT + 1))
W2_PORT=$((COORD_PORT + 2))
COORD="http://127.0.0.1:$COORD_PORT"
WORK="$(mktemp -d)"
PIDS=()
cleanup() {
  rc=$?
  if [ "$rc" -ne 0 ] && [ -n "${E2E_ARTIFACT_DIR:-}" ]; then
    mkdir -p "$E2E_ARTIFACT_DIR"
    cp "$WORK"/*.log "$E2E_ARTIFACT_DIR"/ 2>/dev/null || true
  fi
  for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

# metric <base-url> <series> prints the current value of one
# Prometheus series (label set included in the name, e.g.
# 'fleet_worker_points_executed_total{worker="w1"}').
metric() {
  curl -fsS "$1/metrics" | awk -v pat="$2" '$1 == pat {print $2}'
}

# wait_for <desc> <cmd...> polls cmd (an exit-status predicate) for up
# to 30s.
wait_for() {
  local desc=$1; shift
  for _ in $(seq 1 300); do
    if "$@" > /dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "timeout waiting for: $desc"
  return 1
}

echo "== build"
go build -o "$WORK/minsim" ./cmd/minsim

echo "== boot coordinator + 2 workers"
"$WORK/minsim" coordinate -addr "127.0.0.1:$COORD_PORT" -cache "$WORK/cache" \
  -chunk 2 -lease-ttl 3s 2> "$WORK/simfleet.log" &
PIDS+=($!)
disown
wait_for "coordinator healthz" curl -fsS "$COORD/healthz"

"$WORK/minsim" serve -addr "127.0.0.1:$W1_PORT" -cache "$WORK/w1cache" \
  -coordinator "$COORD" -worker-name w1 2> "$WORK/w1.log" &
W1_PID=$!
PIDS+=($W1_PID)
disown
"$WORK/minsim" serve -addr "127.0.0.1:$W2_PORT" -cache "$WORK/w2cache" \
  -coordinator "$COORD" -worker-name w2 2> "$WORK/w2.log" &
W2_PID=$!
PIDS+=($W2_PID)
disown

registered() { [ "$(metric "$COORD" fleet_workers_registered)" = 2 ]; }
wait_for "both workers registered" registered

# 8 points heavy enough (~0.5M cycles each) that chunk-2 leases take
# long enough for both workers to grab work.
PANEL='{"experiments":[{"id":"panel","loads":[0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4],"curves":[{"label":"tmin","network":{"kind":"tmin","k":4,"stages":2},"workload":{"pattern":"uniform"}}]}],"budget":{"warmup":200,"measure":500000}}'

echo "== cold panel: sharded across the fleet"
cold=$(curl -fsS -X POST "$COORD/v1/run" -d "$PANEL")
echo "$cold" | grep -o '"counters":{[^}]*}'
echo "$cold" | grep -q '"status":"done"' || { echo "cold run not done"; exit 1; }
unique=$(echo "$cold" | sed -n 's/.*"unique":\([0-9]*\).*/\1/p')
executed=$(echo "$cold" | sed -n 's/.*"executed":\([0-9]*\).*/\1/p')
[ "$executed" = "$unique" ] && [ "$executed" -gt 0 ] \
  || { echo "cold run executed $executed of $unique unique points"; exit 1; }

w1_exec=$(metric "$COORD" 'fleet_worker_points_executed_total{worker="w1"}')
w2_exec=$(metric "$COORD" 'fleet_worker_points_executed_total{worker="w2"}')
dups=$(metric "$COORD" fleet_duplicate_executions_total)
echo "w1 executed $w1_exec, w2 executed $w2_exec, duplicates $dups"
[ "${w1_exec:-0}" -gt 0 ] || { echo "worker w1 executed nothing"; exit 1; }
[ "${w2_exec:-0}" -gt 0 ] || { echo "worker w2 executed nothing"; exit 1; }
[ "$dups" = 0 ] || { echo "cold run recorded $dups duplicate executions"; exit 1; }
[ "$((w1_exec + w2_exec))" = "$unique" ] \
  || { echo "per-worker executed ($w1_exec + $w2_exec) != $unique unique: a key ran twice"; exit 1; }

# Both workers are idle now, and an idle worker is a lease call held
# in the coordinator: two waiters says the held path is the one in use.
echo "== idle workers are parked in the coordinator"
both_parked() { [ "$(metric "$COORD" fleet_lease_waiters)" = 2 ]; }
wait_for "both workers parked in held lease calls" both_parked

echo "== worker-side metrics surface"
curl -fsS "http://127.0.0.1:$W1_PORT/metrics" | grep -q '^simd_worker_points_executed_total' \
  || { echo "w1 missing fleet worker metrics"; exit 1; }

# Slow job: 6 fresh points at 8M cycles each, so a chunk-2 lease stays
# outstanding for seconds — long enough to observe and kill its holder.
SLOW='{"experiments":[{"id":"slow","loads":[0.41,0.42,0.43,0.44,0.45,0.46],"curves":[{"label":"tmin","network":{"kind":"tmin","k":4,"stages":2},"workload":{"pattern":"uniform"}}]}],"budget":{"warmup":200,"measure":8000000}}'

echo "== kill -9 a leased worker mid-job"
slow_id=$(curl -fsS -X POST "$COORD/v1/jobs" -d "$SLOW" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
victim=""
for _ in $(seq 1 300); do
  if [ "$(metric "$COORD" 'fleet_worker_active_leases{worker="w1"}')" -ge 1 ] 2>/dev/null; then
    victim=w1; victim_pid=$W1_PID; break
  fi
  if [ "$(metric "$COORD" 'fleet_worker_active_leases{worker="w2"}')" -ge 1 ] 2>/dev/null; then
    victim=w2; victim_pid=$W2_PID; break
  fi
  sleep 0.05
done
[ -n "$victim" ] || { echo "no worker ever held a lease for the slow job"; exit 1; }
echo "killing $victim (pid $victim_pid) holding a live lease"
kill -9 "$victim_pid"

slow_done() { curl -fsS "$COORD/v1/jobs/$slow_id" | grep -q '"status":"done"'; }
wait_for "slow job completion after worker loss" slow_done
curl -fsS "$COORD/v1/jobs/$slow_id" | grep -o '"counters":{[^}]*}'
expired=$(metric "$COORD" fleet_leases_expired_total)
requeued=$(metric "$COORD" fleet_units_requeued_total)
echo "leases expired $expired, units requeued $requeued"
[ "$expired" -ge 1 ] || { echo "the killed worker's lease never expired"; exit 1; }
[ "$requeued" -ge 1 ] || { echo "no units were requeued after worker loss"; exit 1; }

echo "== warm rerun: 0 executed fleet-wide"
warm=$(curl -fsS -X POST "$COORD/v1/run" -d "$PANEL")
echo "$warm" | grep -o '"counters":{[^}]*}'
echo "$warm" | grep -q '"executed":0' || { echo "warm rerun re-executed points"; exit 1; }

echo "== coordinator fleet metrics surface"
for m in fleet_units_completed_total fleet_leases_granted_total fleet_store_puts_total; do
  [ "$(metric "$COORD" "$m")" -ge 1 ] || { echo "metric $m missing or zero"; exit 1; }
done

echo "fleet-e2e: all checks passed"
