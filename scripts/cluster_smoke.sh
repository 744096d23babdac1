#!/usr/bin/env bash
# Multi-process cluster smoke test (CI job `cluster-smoke`).
#
# Builds a 3-shard cluster (router + 3 warp_serve worker processes) from
# a snapshot directory and asserts the cross-process determinism and
# failure contracts end to end (docs/SERVING.md, "Multi-process cluster"):
#   * a single-process `--shards=3` server restored from the same
#     snapshots produces the golden answers for a five-op query mix
#     (1nn / knn / range / dist / subsequence, plus a cache-hit repeat);
#   * the cluster answers the same mix byte-identically;
#   * SIGKILLing a worker (pid scraped from the launcher's
#     "worker shard=K pid=P" lines) yields flagged degradation — scans
#     answer ok with partial:true and the dead shard in shards_missing —
#     with no hangs or crashes;
#   * after the supervisor restarts the worker, the full mix is again
#     byte-identical to the golden, the cluster's merged stats report
#     the restart, and its merged metrics pass scripts/check_metrics.py;
#   * `shutdown` stops the whole cluster with exit code 0.
#
# Usage: scripts/cluster_smoke.sh [BUILD_DIR]   (default: build)
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build}"
SERVE="$BUILD_DIR/tools/warp_serve"
CLUSTER="$BUILD_DIR/tools/warp_cluster"
CLI="$BUILD_DIR/tools/warp_cli"
WORK="$(mktemp -d)"
SERVER_PID=""
CLUSTER_PID=""

fail() {
  echo "CLUSTER SMOKE FAIL: $*" >&2
  [ -f "$WORK/server.log" ] && sed 's/^/  server: /' "$WORK/server.log" >&2
  [ -f "$WORK/cluster.log" ] && sed 's/^/  cluster: /' "$WORK/cluster.log" >&2
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2> /dev/null
  [ -n "$CLUSTER_PID" ] && kill "$CLUSTER_PID" 2> /dev/null
  rm -rf "$WORK"
  exit 1
}

[ -x "$SERVE" ] || fail "$SERVE not built"
[ -x "$CLUSTER" ] || fail "$CLUSTER not built"
[ -x "$CLI" ] || fail "$CLI not built"

wait_ready_port() {
  # wait_ready_port LOGFILE PIDVAR_VALUE -> prints the scraped port
  local log="$1" pid="$2" port=""
  for _ in $(seq 1 150); do
    port="$(sed -n 's/^ready port=\([0-9]*\)$/\1/p' "$log" 2> /dev/null)"
    [ -n "$port" ] && break
    kill -0 "$pid" 2> /dev/null || return 1
    sleep 0.1
  done
  [ -n "$port" ] || return 1
  echo "$port"
}

# --- Produce the snapshot every process loads -------------------------------
mkdir -p "$WORK/snapdir"
"$SERVE" --gen=smoke=40,64 --threads=2 > "$WORK/seed.log" &
SERVER_PID=$!
SEED_PORT="$(wait_ready_port "$WORK/seed.log" "$SERVER_PID")" \
    || fail "seed server never came up"
echo '{"id": 1, "op": "save_snapshot", "dataset": "smoke", "path": "'"$WORK"'/snapdir/smoke.wsnap"}' \
    | "$CLI" query --port="$SEED_PORT" > "$WORK/save.txt" \
    || fail "save_snapshot failed"
grep -q '"ok":true' "$WORK/save.txt" \
    || fail "save_snapshot wrong: $(cat "$WORK/save.txt")"
echo '{"id": 0, "op": "shutdown"}' | "$CLI" query --port="$SEED_PORT" > /dev/null
wait "$SERVER_PID" || fail "seed server exited nonzero"
SERVER_PID=""

# --- The query mix and its single-process golden ----------------------------
QUERY='[0.1, 0.7, 1.3, 0.9, 0.2, -0.4, -1.1, -0.6, 0.3, 1.0]'
SHORTQ='[0.3, 0.9, 1.1, 0.4, -0.2, -0.8]'
{
  echo '{"id": 1, "op": "1nn", "dataset": "smoke", "query": '"$QUERY"'}'
  echo '{"id": 2, "op": "knn", "dataset": "smoke", "k": 4, "query": '"$QUERY"'}'
  echo '{"id": 3, "op": "range", "dataset": "smoke", "threshold": 9.5, "query": '"$QUERY"'}'
  echo '{"id": 4, "op": "dist", "dataset": "smoke", "index": 7, "query": '"$QUERY"'}'
  echo '{"id": 5, "op": "subsequence", "dataset": "smoke", "index": 3, "query": '"$SHORTQ"'}'
  echo '{"id": 1, "op": "1nn", "dataset": "smoke", "query": '"$QUERY"'}'
} > "$WORK/requests.txt"

"$SERVE" --snapshot-dir="$WORK/snapdir" --shards=3 --threads=2 \
    > "$WORK/server.log" &
SERVER_PID=$!
GOLDEN_PORT="$(wait_ready_port "$WORK/server.log" "$SERVER_PID")" \
    || fail "single-process --shards=3 server never came up"
"$CLI" query --port="$GOLDEN_PORT" < "$WORK/requests.txt" > "$WORK/golden.txt" \
    || fail "golden query run failed"
grep -q '"ok":false' "$WORK/golden.txt" && fail "golden run has failures:
$(cat "$WORK/golden.txt")"
echo '{"id": 0, "op": "shutdown"}' | "$CLI" query --port="$GOLDEN_PORT" > /dev/null
wait "$SERVER_PID" || fail "golden server exited nonzero"
SERVER_PID=""
echo "cluster-smoke: golden answers captured"

# --- Start the 3-shard cluster from the same snapshots ----------------------
# A long first-restart backoff keeps the degraded window open long enough
# to observe after the SIGKILL below.
"$CLUSTER" --shards=3 --snapshot-dir="$WORK/snapdir" --threads=2 \
    --restart-backoff-ms=4000 > "$WORK/cluster.log" &
CLUSTER_PID=$!
PORT="$(wait_ready_port "$WORK/cluster.log" "$CLUSTER_PID")" \
    || fail "cluster never came up"
WORKER1_PID="$(sed -n 's/^worker shard=1 pid=\([0-9]*\).*/\1/p' "$WORK/cluster.log")"
[ -n "$WORKER1_PID" ] || fail "no worker shard=1 pid line in cluster log"
echo "cluster-smoke: cluster up on port $PORT (worker 1 pid $WORKER1_PID)"

# Healthy cluster: byte-identical to the single process.
"$CLI" query --port="$PORT" < "$WORK/requests.txt" > "$WORK/cluster1.txt" \
    || fail "cluster query run failed"
diff "$WORK/golden.txt" "$WORK/cluster1.txt" > /dev/null \
    || fail "cluster answers diverged from single process:
$(diff "$WORK/golden.txt" "$WORK/cluster1.txt" | head -8)"
echo "cluster-smoke: healthy cluster byte-identical to single process"

# --- Kill worker 1: flagged partial degradation, no hangs -------------------
kill -KILL "$WORKER1_PID" 2> /dev/null || fail "could not SIGKILL worker 1"
# Give the supervisor a moment to reap the death before probing.
sleep 0.5
echo '{"id": 1, "op": "1nn", "dataset": "smoke", "query": '"$QUERY"'}' \
    | "$CLI" query --port="$PORT" > "$WORK/degraded.txt" \
    || fail "query against degraded cluster failed"
grep -q '"ok":true' "$WORK/degraded.txt" \
    || fail "degraded scan not ok: $(cat "$WORK/degraded.txt")"
grep -q '"partial":true' "$WORK/degraded.txt" \
    || fail "degraded scan not flagged partial: $(cat "$WORK/degraded.txt")"
grep -q '"shards_missing":\[1\]' "$WORK/degraded.txt" \
    || fail "missing shard not named: $(cat "$WORK/degraded.txt")"
echo "cluster-smoke: degraded window flagged (partial:true, shards_missing:[1])"

# --- Wait out the restart, then demand bitwise recovery ---------------------
RECOVERED=""
for _ in $(seq 1 120); do
  echo '{"id": 1, "op": "1nn", "dataset": "smoke", "query": '"$QUERY"'}' \
      | "$CLI" query --port="$PORT" > "$WORK/probe.txt" 2> /dev/null
  if grep -q '"ok":true' "$WORK/probe.txt" \
      && ! grep -q '"partial":true' "$WORK/probe.txt"; then
    RECOVERED=1
    break
  fi
  sleep 0.25
done
[ -n "$RECOVERED" ] || fail "worker 1 never came back"

"$CLI" query --port="$PORT" < "$WORK/requests.txt" > "$WORK/cluster2.txt" \
    || fail "post-restart query run failed"
diff "$WORK/golden.txt" "$WORK/cluster2.txt" > /dev/null \
    || fail "post-restart answers diverged from single process:
$(diff "$WORK/golden.txt" "$WORK/cluster2.txt" | head -8)"
echo "cluster-smoke: post-restart cluster byte-identical again"

# Merged stats must carry the cluster counters (the restart is visible).
echo '{"id": 9, "op": "stats"}' | "$CLI" query --port="$PORT" \
    > "$WORK/stats.txt" || fail "cluster stats failed"
grep -q '"cluster_scatters":' "$WORK/stats.txt" \
    || fail "stats missing cluster_scatters: $(cat "$WORK/stats.txt")"
grep -q '"cluster_worker_restarts":' "$WORK/stats.txt" \
    || fail "stats missing cluster_worker_restarts"
grep -q '"cluster_partial_replies":' "$WORK/stats.txt" \
    || fail "stats missing cluster_partial_replies"

# The merged exposition must be as well-formed as a single server's.
echo '{"id": 10, "op": "metrics"}' | "$CLI" query --port="$PORT" \
    > "$WORK/metrics.txt" || fail "cluster metrics failed"
python3 "$ROOT/scripts/check_metrics.py" "$WORK/metrics.txt" \
    || fail "cluster warp-metrics-v1 invalid"

# --- Clean shutdown of the whole cluster ------------------------------------
echo '{"id": 99, "op": "shutdown"}' | "$CLI" query --port="$PORT" \
    > "$WORK/shutdown.txt" || fail "cluster shutdown request failed"
grep -q '"ok":true' "$WORK/shutdown.txt" || fail "cluster shutdown not acked"
wait "$CLUSTER_PID"
CODE=$?
[ "$CODE" -eq 0 ] || fail "cluster exited $CODE after shutdown"
CLUSTER_PID=""

rm -rf "$WORK"
echo "cluster-smoke: all cluster checks passed"
