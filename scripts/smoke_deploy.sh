#!/usr/bin/env bash
# Out-of-process smoke of the serving deployment (docs/DEPLOY.md), four legs:
#   1. the four-binary topology: keygen -> encrypt -> sknn_c2_server ->
#      sknn_c1_server -> concurrent thin clients;
#   2. the SHARDED topology: the same database split across two
#      sknn_c1_shard workers (via the manifest sknn_encrypt emitted; one
#      with --no-short-randomizers) behind a worker-backed sknn_c1_server;
#   3. the MULTI-TABLE topology: two tables with DISTINCT Paillier keys
#      (each with its own C2 key holder) behind ONE sknn_c1_server,
#      introspected with sknn_admin, churned by 200 connect/close cycles
#      against one C2 (whose fd count must stay flat) and torn down with
#      SIGTERM — the servers must drain and exit 0, which is why no
#      teardown step here needs "|| true";
#   4. the CHAOS leg: 2 shards x 2 replicas behind one front end, with
#      oracle-diffing clients looping the whole time while the smoke
#      kill -9s a replica mid-traffic, restarts it on the same port (the
#      probe redials and reinstates it), and hot-reloads the table — zero
#      client-visible failures allowed; then both replicas of one shard
#      are SIGSTOPped and a --deadline-ms probe must come back as a TYPED
#      deadline error (exit 4) within the budget, not a hang;
#   5. the QoS leg: a key-gated front end — keyless and
#      wrong-key queries are typed PermissionDenied (exit 5), an
#      authorized miss/hit/--no-cache triple must all equal the oracle
#      (the cache-freshness differential), and a quota-2 key is served
#      twice then typed ResourceExhausted.
# Every answer of every leg is diffed against the plaintext oracle — the
# sharded leg on a table WITH tied distances, which the deterministic
# tie-break must resolve exactly like the oracle (lower index first).
# Control-plane assertions go through `sknn_admin --json` + python3
# (structured checks, not output-format greps).
#
#   scripts/smoke_deploy.sh [build-dir]     # default: build
set -euo pipefail

BUILD_DIR=${1:-build}
BIN=$(cd "$BUILD_DIR" && pwd)
WORK=$(mktemp -d)
# Failure-path safety net only: every leg's normal path stops its servers
# with term_and_wait below and asserts a clean exit 0.
cleanup() {
  local pids
  pids=$(jobs -p)
  if [ -n "$pids" ]; then
    # shellcheck disable=SC2086  # word splitting wanted: one pid per argument
    kill $pids 2>/dev/null && wait $pids 2>/dev/null
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

# SIGTERM each pid, then wait for ALL of them, requiring clean exits: under
# `set -e` a server that dies non-zero (instead of draining on the signal)
# fails the smoke.
term_and_wait() {
  local pid
  for pid in "$@"; do kill -TERM "$pid"; done
  for pid in "$@"; do wait "$pid"; done
}

PY=python3
command -v "$PY" > /dev/null || {
  echo "python3 is required for the structured sknn_admin --json checks" >&2
  exit 1
}

# Assert a python expression over `d`, the parsed JSON document in file $1.
# sknn_admin --json emits one document per invocation: --stats/--health are
# objects, --list-tables/--table-info are bare arrays.
json_assert() { # json-file python-expression
  "$PY" -c '
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
if not eval(sys.argv[2]):
    sys.exit(1)
' "$1" "$2" || {
    echo "json check failed: $2"
    echo "-- document ($1):"
    cat "$1"
    exit 1
  }
}

# Print "<healthy> <total>" replica counts from a --json --health document;
# tolerates a missing/truncated file (prints "0 0") so poll loops can race
# the admin call.
healthy_replicas() { # json-file
  "$PY" -c '
import json, sys
try:
    with open(sys.argv[1]) as f:
        d = json.load(f)
    rs = [r for t in d["tables"] for r in t["replicas"]]
    print(sum(1 for r in rs if r["healthy"]), len(rs))
except Exception:
    print(0, 0)
' "$1"
}

# A distinct-distance table: answers are deterministic for every protocol,
# so the secure results must match the plaintext oracle exactly.
cat > "$WORK/table.csv" <<EOF
0,0
1,0
2,0
3,0
4,0
5,0
EOF
# Queries on or beyond the table edge keep all squared distances distinct.
QUERIES=("0,0" "5,0" "7,1")

echo "== Alice: keygen + encrypt (+ 2-shard manifest) =="
"$BIN/sknn_keygen" --bits 512 --public "$WORK/pk.txt" --secret "$WORK/sk.txt"
"$BIN/sknn_encrypt" --public "$WORK/pk.txt" --csv "$WORK/table.csv" \
  --attr-bits 3 --out "$WORK/db.bin"

# The sharded leg's table: records 1-3 are all at squared distance 4 from
# query (2,0) — the deterministic tie-break (lower index) is on the line.
cat > "$WORK/tied.csv" <<EOF
2,0
0,0
4,0
2,2
7,0
EOF
"$BIN/sknn_encrypt" --public "$WORK/pk.txt" --csv "$WORK/tied.csv" \
  --attr-bits 3 --out "$WORK/tied_db.bin" \
  --shards 2 --shard-scheme roundrobin --manifest-out "$WORK/tied_manifest.bin"

wait_for_port() { # logfile -> port printed as "serving on 127.0.0.1:PORT"
  local log=$1 port=""
  for _ in $(seq 100); do
    port=$(sed -n 's/.*serving on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log" | head -1)
    [ -n "$port" ] && { echo "$port"; return 0; }
    sleep 0.1
  done
  echo "timed out waiting for server port in $log" >&2
  return 1
}

echo "== a misspelt flag is refused (exit 2), not ignored =="
set +e
"$BIN/sknn_c2_server" --secret "$WORK/sk.txt" --port 0 --wrokers 4 \
  > /dev/null 2>"$WORK/typo.err"
rc=$?
set -e
[ "$rc" -eq 2 ] || {
  echo "expected exit 2 for --wrokers, got $rc"; cat "$WORK/typo.err"; exit 1; }
grep -q "unknown flag --wrokers" "$WORK/typo.err"

echo "== C2: key holder =="
"$BIN/sknn_c2_server" --secret "$WORK/sk.txt" --port 0 --workers 2 \
  --pool-capacity 256 --connections 1 > "$WORK/c2.log" 2>&1 &
C2_PID=$!
C2_PORT=$(wait_for_port "$WORK/c2.log")

echo "== C1: query front end =="
N_QUERIES=$((2 * ${#QUERIES[@]} + 1)) # basic+secure per query, one farthest
"$BIN/sknn_c1_server" --public "$WORK/pk.txt" --db "$WORK/db.bin" --port 0 \
  --c2-host 127.0.0.1 --c2-port "$C2_PORT" --threads 2 --max-in-flight 8 \
  --queries "$N_QUERIES" > "$WORK/c1.log" 2>&1 &
C1_PID=$!
C1_PORT=$(wait_for_port "$WORK/c1.log")

echo "== Bob x $N_QUERIES: concurrent thin clients =="
CLIENT_PIDS=()
for q in "${QUERIES[@]}"; do
  for proto in basic secure; do
    "$BIN/sknn_query" --host 127.0.0.1 --port "$C1_PORT" --query "$q" \
      --k 2 --protocol "$proto" > "$WORK/out_${proto}_${q//,/_}" 2>>"$WORK/clients.log" &
    CLIENT_PIDS+=($!)
  done
done
"$BIN/sknn_query" --host 127.0.0.1 --port "$C1_PORT" --query "0,0" \
  --k 2 --protocol farthest > "$WORK/out_farthest_0_0" 2>>"$WORK/clients.log" &
CLIENT_PIDS+=($!)
for pid in "${CLIENT_PIDS[@]}"; do
  wait "$pid" || { echo "a thin client failed:"; cat "$WORK/clients.log"; exit 1; }
done

echo "== diff against the plaintext oracle =="
for q in "${QUERIES[@]}"; do
  "$BIN/sknn_plain_knn" --csv "$WORK/table.csv" --query "$q" --k 2 > "$WORK/want"
  for proto in basic secure; do
    tail -n +2 "$WORK/out_${proto}_${q//,/_}" > "$WORK/got"
    diff -u "$WORK/want" "$WORK/got" || {
      echo "MISMATCH: $proto query=$q"; exit 1; }
  done
done
"$BIN/sknn_plain_knn" --csv "$WORK/table.csv" --query "0,0" --k 2 --farthest \
  > "$WORK/want"
tail -n +2 "$WORK/out_farthest_0_0" > "$WORK/got"
diff -u "$WORK/want" "$WORK/got" || { echo "MISMATCH: farthest query=0,0"; exit 1; }

wait "$C1_PID"
wait "$C2_PID"
echo "leg 1 OK: $N_QUERIES concurrent queries match the plaintext oracle"

echo "== leg 2: sharded deployment (2 x sknn_c1_shard + coordinator) =="
# 3 links close on this C2: two shard workers + the coordinator.
"$BIN/sknn_c2_server" --secret "$WORK/sk.txt" --port 0 --workers 2 \
  --pool-capacity 256 --connections 3 > "$WORK/c2_sharded.log" 2>&1 &
C2S_PID=$!
C2S_PORT=$(wait_for_port "$WORK/c2_sharded.log")

# Worker 1 refills its randomizers full-width (the paper-exact setting of
# docs/CRYPTO.md), worker 0 on the short-exponent path: answers must not
# depend on it.
SHARD_PIDS=()
for shard in 0 1; do
  refill_flag=()
  [ "$shard" = 1 ] && refill_flag=(--no-short-randomizers)
  "$BIN/sknn_c1_shard" --public "$WORK/pk.txt" --db "$WORK/tied_db.bin" \
    --port 0 --c2-host 127.0.0.1 --c2-port "$C2S_PORT" \
    --manifest "$WORK/tied_manifest.bin" --shard-index "$shard" \
    --threads 2 --connections 1 "${refill_flag[@]}" \
    > "$WORK/shard$shard.log" 2>&1 &
  SHARD_PIDS+=($!)
done
SHARD0_PORT=$(wait_for_port "$WORK/shard0.log")
SHARD1_PORT=$(wait_for_port "$WORK/shard1.log")
grep -q "short-exponent randomizers" "$WORK/shard0.log" || {
  echo "shard 0 does not report short-exponent refills"; cat "$WORK/shard0.log"
  exit 1; }
grep -q "full-width randomizers" "$WORK/shard1.log" || {
  echo "shard 1 ignored --no-short-randomizers"; cat "$WORK/shard1.log"
  exit 1; }

# The worker-backed front end hosts no records itself: no --db.
N_SHARDED=3
"$BIN/sknn_c1_server" --public "$WORK/pk.txt" --port 0 \
  --c2-host 127.0.0.1 --c2-port "$C2S_PORT" --threads 2 --max-in-flight 8 \
  --shard-workers "127.0.0.1:$SHARD0_PORT,127.0.0.1:$SHARD1_PORT" \
  --queries "$N_SHARDED" > "$WORK/c1_sharded.log" 2>&1 &
C1S_PID=$!
C1S_PORT=$(wait_for_port "$WORK/c1_sharded.log")

# Query (2,0) puts records 1-3 in a three-way distance tie: the sharded
# answer must break it exactly like the oracle (lower index first).
for proto in basic secure; do
  "$BIN/sknn_query" --host 127.0.0.1 --port "$C1S_PORT" --query "2,0" \
    --k 3 --protocol "$proto" > "$WORK/sharded_$proto" \
    2>>"$WORK/clients.log" || { echo "sharded $proto client failed"; exit 1; }
  "$BIN/sknn_plain_knn" --csv "$WORK/tied.csv" --query "2,0" --k 3 \
    > "$WORK/want"
  tail -n +2 "$WORK/sharded_$proto" > "$WORK/got"
  diff -u "$WORK/want" "$WORK/got" || {
    echo "MISMATCH: sharded $proto (tie-break?)"; exit 1; }
done
"$BIN/sknn_query" --host 127.0.0.1 --port "$C1S_PORT" --query "2,0" \
  --k 2 --protocol farthest > "$WORK/sharded_farthest" \
  2>>"$WORK/clients.log" || { echo "sharded farthest client failed"; exit 1; }
"$BIN/sknn_plain_knn" --csv "$WORK/tied.csv" --query "2,0" --k 2 --farthest \
  > "$WORK/want"
tail -n +2 "$WORK/sharded_farthest" > "$WORK/got"
diff -u "$WORK/want" "$WORK/got" || { echo "MISMATCH: sharded farthest"; exit 1; }

wait "$C1S_PID"
for pid in "${SHARD_PIDS[@]}"; do wait "$pid"; done
wait "$C2S_PID"
echo "leg 2 OK: 2-shard deployment matches the oracle (ties included)"

echo "== leg 3: multi-table front end (distinct keys per table) =="
# A second key ceremony: table "beta" shares NOTHING with "alpha" — its own
# key pair, its own C2 key holder, its own dimensionality.
"$BIN/sknn_keygen" --bits 512 --public "$WORK/pk_b.txt" --secret "$WORK/sk_b.txt"
cat > "$WORK/beta.csv" <<EOF
0,0,1
2,0,1
4,0,1
6,0,1
EOF
"$BIN/sknn_encrypt" --public "$WORK/pk_b.txt" --csv "$WORK/beta.csv" \
  --attr-bits 3 --out "$WORK/beta_db.bin"

# Both C2s and the front end run UNBOUNDED here: leg 3's teardown is the
# SIGINT/SIGTERM drain path itself.
"$BIN/sknn_c2_server" --secret "$WORK/sk.txt" --port 0 --workers 2 \
  --pool-capacity 256 > "$WORK/c2_alpha.log" 2>&1 &
C2A_PID=$!
C2A_PORT=$(wait_for_port "$WORK/c2_alpha.log")
"$BIN/sknn_c2_server" --secret "$WORK/sk_b.txt" --port 0 --workers 2 \
  --pool-capacity 256 > "$WORK/c2_beta.log" 2>&1 &
C2B_PID=$!
C2B_PORT=$(wait_for_port "$WORK/c2_beta.log")

"$BIN/sknn_c1_server" --port 0 --threads 2 --max-in-flight 8 \
  --table "alpha=$WORK/db.bin,public=$WORK/pk.txt,c2-port=$C2A_PORT" \
  --table "beta=$WORK/beta_db.bin,public=$WORK/pk_b.txt,c2-port=$C2B_PORT" \
  > "$WORK/c1_multi.log" 2>&1 &
C1M_PID=$!
C1M_PORT=$(wait_for_port "$WORK/c1_multi.log")

echo "== sknn_admin: control plane (structured --json checks) =="
"$BIN/sknn_admin" --host 127.0.0.1 --port "$C1M_PORT" --json --hello \
  > "$WORK/hello.json"
json_assert "$WORK/hello.json" 'd["revision"] == 7 and d["num_tables"] == 2'
"$BIN/sknn_admin" --host 127.0.0.1 --port "$C1M_PORT" --json --list-tables \
  > "$WORK/tables.json"
json_assert "$WORK/tables.json" 'd == ["alpha", "beta"]'
"$BIN/sknn_admin" --host 127.0.0.1 --port "$C1M_PORT" --json --table-info \
  > "$WORK/table_info.json"
json_assert "$WORK/table_info.json" \
  '[t["name"] for t in d] == ["alpha", "beta"]'
json_assert "$WORK/table_info.json" \
  'd[0]["attributes"] == 2 and d[1]["attributes"] == 3' # beta is 3-dimensional
json_assert "$WORK/table_info.json" \
  'all(t["records"] > 0 and t["k_max"] >= 2 for t in d)'

echo "== per-table queries diffed against the oracle =="
for q in "1,0" "5,0"; do
  "$BIN/sknn_query" --host 127.0.0.1 --port "$C1M_PORT" --table alpha \
    --query "$q" --k 2 --protocol secure > "$WORK/alpha_out" \
    2>>"$WORK/clients.log"
  "$BIN/sknn_plain_knn" --csv "$WORK/table.csv" --query "$q" --k 2 \
    > "$WORK/want"
  tail -n +2 "$WORK/alpha_out" > "$WORK/got"
  diff -u "$WORK/want" "$WORK/got" || { echo "MISMATCH: alpha $q"; exit 1; }
done
"$BIN/sknn_query" --host 127.0.0.1 --port "$C1M_PORT" --table beta \
  --query "5,0,1" --k 2 --protocol secure > "$WORK/beta_out" \
  2>>"$WORK/clients.log"
"$BIN/sknn_plain_knn" --csv "$WORK/beta.csv" --query "5,0,1" --k 2 \
  > "$WORK/want"
tail -n +2 "$WORK/beta_out" > "$WORK/got"
diff -u "$WORK/want" "$WORK/got" || { echo "MISMATCH: beta"; exit 1; }

# A wrong table name is a typed error (exit 1), not a hang or garbage.
if "$BIN/sknn_query" --host 127.0.0.1 --port "$C1M_PORT" --table gamma \
    --query "1,0" --k 1 > /dev/null 2>"$WORK/gamma.err"; then
  echo "querying an unknown table unexpectedly succeeded"; exit 1
fi
grep -q "unknown table" "$WORK/gamma.err"

"$BIN/sknn_admin" --host 127.0.0.1 --port "$C1M_PORT" --json --stats \
  > "$WORK/stats.json"
json_assert "$WORK/stats.json" \
  '{t["name"]: t["completed"] for t in d["tables"]} == {"alpha": 2, "beta": 1}'
json_assert "$WORK/stats.json" \
  'all(t["failed"] == 0 and t["rejected"] == 0 for t in d["tables"])'
# Revision 4: the per-table randomizer pools must be provisioned on some
# cloud. Revision 6: fair-admission words are live (weight defaults to 1,
# every table gets a non-zero share of --max-in-flight) and auth is OFF
# on a front end started without --api-keys.
json_assert "$WORK/stats.json" \
  'all(t["c1_pool_capacity"] + t["c2_pool_capacity"] > 0 for t in d["tables"])'
json_assert "$WORK/stats.json" \
  'all(t["weight"] == 1 and t["share_limit"] >= 1 for t in d["tables"])'
json_assert "$WORK/stats.json" \
  'd["auth_enabled"] is False and d["keys"] == []'

echo "== link churn: 200 connect/close cycles leave C2's fd count flat =="
# Front ends, shard workers and reloads dial C2 and hang up all day; a
# closed link's session must be freed, not kept until C2 exits.
fd_count() { ls "/proc/$1/fd" | wc -l; }
FDS_BEFORE=$(fd_count "$C2A_PID")
"$PY" -c '
import socket, sys
for _ in range(200):
    socket.create_connection(("127.0.0.1", int(sys.argv[1]))).close()
' "$C2A_PORT"
sleep 0.5
FDS_AFTER=$(fd_count "$C2A_PID")
[ "$FDS_AFTER" -le $((FDS_BEFORE + 8)) ] || {
  echo "C2 kept closed links: $FDS_BEFORE -> $FDS_AFTER fds over 200 cycles"
  exit 1
}

echo "== SIGTERM teardown: every server must drain and exit 0 =="
term_and_wait "$C1M_PID"
term_and_wait "$C2A_PID" "$C2B_PID"
echo "leg 3 OK: two tables, two key pairs, one front end; clean shutdown"

echo "== leg 4: chaos — 2 shards x 2 replicas, kill -9 + hot reload under traffic =="
# The C2 and the workers run UNBOUNDED: redials after the kill -9 and the
# fresh links a hot reload opens make the connection count unpredictable.
"$BIN/sknn_c2_server" --secret "$WORK/sk.txt" --port 0 --workers 2 \
  --pool-capacity 256 > "$WORK/c2_chaos.log" 2>&1 &
C2C_PID=$!
C2C_PORT=$(wait_for_port "$WORK/c2_chaos.log")

start_replica() { # shard replica-tag port(0=ephemeral) -> logs to chaos_<s><tag>.log
  "$BIN/sknn_c1_shard" --public "$WORK/pk.txt" --db "$WORK/tied_db.bin" \
    --port "$3" --c2-host 127.0.0.1 --c2-port "$C2C_PORT" \
    --manifest "$WORK/tied_manifest.bin" --shard-index "$1" \
    --threads 2 > "$WORK/chaos_$1$2.log" 2>&1 &
}
start_replica 0 a 0; S0A_PID=$!
start_replica 0 b 0; S0B_PID=$!
start_replica 1 a 0; S1A_PID=$!
start_replica 1 b 0; S1B_PID=$!
S0A_PORT=$(wait_for_port "$WORK/chaos_0a.log")
S0B_PORT=$(wait_for_port "$WORK/chaos_0b.log")
S1A_PORT=$(wait_for_port "$WORK/chaos_1a.log")
S1B_PORT=$(wait_for_port "$WORK/chaos_1b.log")

# Two addresses claiming the same shard index = replicas of that shard.
"$BIN/sknn_c1_server" --public "$WORK/pk.txt" --port 0 \
  --c2-host 127.0.0.1 --c2-port "$C2C_PORT" --threads 2 --max-in-flight 8 \
  --shard-workers "127.0.0.1:$S0A_PORT,127.0.0.1:$S0B_PORT,127.0.0.1:$S1A_PORT,127.0.0.1:$S1B_PORT" \
  > "$WORK/c1_chaos.log" 2>&1 &
C1C_PID=$!
C1C_PORT=$(wait_for_port "$WORK/c1_chaos.log")

# Oracle-diffing client loop: queries until chaos_stop appears, records its
# query count, and flags ANY failure or oracle mismatch in chaos_failed.
"$BIN/sknn_plain_knn" --csv "$WORK/tied.csv" --query "2,0" --k 3 \
  > "$WORK/chaos_want"
chaos_client() { # proto
  local proto=$1 n=0
  while [ ! -f "$WORK/chaos_stop" ]; do
    if ! "$BIN/sknn_query" --host 127.0.0.1 --port "$C1C_PORT" \
        --query "2,0" --k 3 --protocol "$proto" \
        > "$WORK/chaos_out_$proto" 2>>"$WORK/chaos_clients.log"; then
      echo "$proto query failed" >> "$WORK/chaos_failed"
      return 0
    fi
    tail -n +2 "$WORK/chaos_out_$proto" > "$WORK/chaos_got_$proto"
    diff -u "$WORK/chaos_want" "$WORK/chaos_got_$proto" \
      >> "$WORK/chaos_failed" 2>&1 || true
    n=$((n + 1))
  done
  echo "$n" > "$WORK/chaos_count_$proto"
}
chaos_client basic &
CHAOS_BASIC_PID=$!
chaos_client secure &
CHAOS_SECURE_PID=$!
sleep 1 # let traffic flow on the healthy topology first

echo "== kill -9 shard-0 replica a mid-traffic =="
kill -9 "$S0A_PID"
wait "$S0A_PID" 2>/dev/null || true
healthy=0 total=0
for _ in $(seq 100); do
  "$BIN/sknn_admin" --host 127.0.0.1 --port "$C1C_PORT" --json --health \
    > "$WORK/chaos_health.json" 2>/dev/null || true
  read -r healthy total <<< "$(healthy_replicas "$WORK/chaos_health.json")"
  [ "$total" -eq 4 ] && [ "$healthy" -lt 4 ] && break
  sleep 0.1
done
if [ "$total" -ne 4 ] || [ "$healthy" -ge 4 ]; then
  echo "killed replica never went unhealthy in sknn_admin --json --health"
  cat "$WORK/chaos_health.json"; exit 1
fi

echo "== restart the replica on the same port: redial must reinstate it =="
start_replica 0 a "$S0A_PORT"; S0A_PID=$!
wait_for_port "$WORK/chaos_0a.log" > /dev/null
for _ in $(seq 200); do
  "$BIN/sknn_admin" --host 127.0.0.1 --port "$C1C_PORT" --json --health \
    > "$WORK/chaos_health.json" 2>/dev/null || true
  read -r healthy total <<< "$(healthy_replicas "$WORK/chaos_health.json")"
  [ "$healthy" -eq 4 ] && [ "$total" -eq 4 ] && break
  sleep 0.1
done
if [ "$healthy" -ne 4 ] || [ "$total" -ne 4 ]; then
  echo "restarted replica was never reinstated"
  cat "$WORK/chaos_health.json"; exit 1
fi
json_assert "$WORK/chaos_health.json" \
  'all(r["consecutive_failures"] == 0 for t in d["tables"] for r in t["replicas"])'

echo "== hot reload under live traffic =="
"$BIN/sknn_admin" --host 127.0.0.1 --port "$C1C_PORT" \
  --reload-table default > "$WORK/chaos_reload"
grep -q "reloaded default" "$WORK/chaos_reload" || {
  echo "reload-table did not ack"; cat "$WORK/chaos_reload"; exit 1; }
sleep 2 # more traffic over the swapped-in engine

touch "$WORK/chaos_stop"
wait "$CHAOS_BASIC_PID"
wait "$CHAOS_SECURE_PID"
if [ -s "$WORK/chaos_failed" ]; then
  echo "chaos clients saw failures or oracle mismatches:"
  cat "$WORK/chaos_failed"; exit 1
fi
# The zero-failure gate above is the real assertion; the floors below only
# prove traffic actually flowed. A secure query costs seconds under these
# 512-bit keys, so its floor is low.
[ "$(cat "$WORK/chaos_count_basic")" -ge 3 ] || {
  echo "chaos basic client only completed $(cat "$WORK/chaos_count_basic") \
queries"; exit 1; }
[ "$(cat "$WORK/chaos_count_secure")" -ge 1 ] || {
  echo "chaos secure client completed no queries"; exit 1; }
n_basic=$(cat "$WORK/chaos_count_basic")
n_secure=$(cat "$WORK/chaos_count_secure")
echo "leg 4a OK: $n_basic+$n_secure queries, zero failures across kill+reload"

echo "== SIGSTOP both shard-1 replicas: deadline must fire, not hang =="
kill -STOP "$S1A_PID" "$S1B_PID"
start=$SECONDS
set +e
"$BIN/sknn_query" --host 127.0.0.1 --port "$C1C_PORT" --query "2,0" \
  --k 1 --protocol basic --deadline-ms 2000 \
  > /dev/null 2>"$WORK/chaos_deadline.err"
rc=$?
set -e
elapsed=$((SECONDS - start))
[ "$rc" -eq 4 ] || {
  echo "expected exit 4 (deadline exceeded), got $rc"
  cat "$WORK/chaos_deadline.err"; exit 1; }
[ "$elapsed" -le 10 ] || {
  echo "deadline probe took ${elapsed}s — the deadline did not bound the hang"
  exit 1; }
grep -qi "deadline" "$WORK/chaos_deadline.err"

kill -CONT "$S1A_PID" "$S1B_PID"
for _ in $(seq 200); do
  "$BIN/sknn_admin" --host 127.0.0.1 --port "$C1C_PORT" --json --health \
    > "$WORK/chaos_health.json" 2>/dev/null || true
  read -r healthy total <<< "$(healthy_replicas "$WORK/chaos_health.json")"
  [ "$healthy" -eq 4 ] && [ "$total" -eq 4 ] && break
  sleep 0.1
done
"$BIN/sknn_query" --host 127.0.0.1 --port "$C1C_PORT" --query "2,0" \
  --k 3 --protocol secure > "$WORK/chaos_final" 2>>"$WORK/chaos_clients.log"
tail -n +2 "$WORK/chaos_final" > "$WORK/chaos_got_final"
diff -u "$WORK/chaos_want" "$WORK/chaos_got_final" || {
  echo "MISMATCH: post-SIGCONT query"; exit 1; }
echo "leg 4b OK: deadline fired in ${elapsed}s (exit 4), shard recovered"

term_and_wait "$C1C_PID"
term_and_wait "$S0A_PID" "$S0B_PID" "$S1A_PID" "$S1B_PID"
term_and_wait "$C2C_PID"
echo "leg 4 OK: failover, redial, hot reload, deadlines — all under traffic"

echo "== leg 5: QoS — API keys, quotas, result cache =="
ADMIN_KEY=$("$PY" -c 'import secrets; print(secrets.token_hex(32))')
TRIAL_KEY=$("$PY" -c 'import secrets; print(secrets.token_hex(32))')
key_digest() { # key -> sha256 hex
  printf '%s' "$1" | \
    "$PY" -c 'import hashlib, sys; print(hashlib.sha256(sys.stdin.buffer.read()).hexdigest())'
}
cat > "$WORK/keys.txt" <<EOF
# id:sha256hex:quota:weight — quota 0 = unlimited
admin:$(key_digest "$ADMIN_KEY"):0:4
trial:$(key_digest "$TRIAL_KEY"):2:1
EOF

"$BIN/sknn_c2_server" --secret "$WORK/sk.txt" --port 0 --workers 2 \
  --pool-capacity 256 > "$WORK/c2_qos.log" 2>&1 &
C2Q_PID=$!
C2Q_PORT=$(wait_for_port "$WORK/c2_qos.log")
"$BIN/sknn_c1_server" --public "$WORK/pk.txt" --db "$WORK/db.bin" --port 0 \
  --c2-host 127.0.0.1 --c2-port "$C2Q_PORT" --threads 2 --max-in-flight 8 \
  --api-keys "$WORK/keys.txt" > "$WORK/c1_qos.log" 2>&1 &
C1Q_PID=$!
C1Q_PORT=$(wait_for_port "$WORK/c1_qos.log")

echo "== keyless and wrong-key queries: typed PermissionDenied (exit 5) =="
set +e
"$BIN/sknn_query" --host 127.0.0.1 --port "$C1Q_PORT" --query "1,0" --k 2 \
  > /dev/null 2>"$WORK/qos_nokey.err"
rc=$?
set -e
[ "$rc" -eq 5 ] || {
  echo "keyless query: expected exit 5 (permission denied), got $rc"
  cat "$WORK/qos_nokey.err"; exit 1; }
grep -q "authentication rejected" "$WORK/qos_nokey.err"
set +e
"$BIN/sknn_query" --host 127.0.0.1 --port "$C1Q_PORT" --query "1,0" --k 2 \
  --api-key deadbeef > /dev/null 2>"$WORK/qos_badkey.err"
rc=$?
set -e
[ "$rc" -eq 5 ] || {
  echo "wrong-key query: expected exit 5 (permission denied), got $rc"
  cat "$WORK/qos_badkey.err"; exit 1; }

echo "== cache differential: miss, hit, and --no-cache all match the oracle =="
"$BIN/sknn_plain_knn" --csv "$WORK/table.csv" --query "1,0" --k 2 \
  > "$WORK/qos_want"
"$BIN/sknn_query" --host 127.0.0.1 --port "$C1Q_PORT" --query "1,0" --k 2 \
  --api-key "$ADMIN_KEY" --stats > "$WORK/qos_miss" 2>>"$WORK/clients.log"
grep -q "# cache miss" "$WORK/qos_miss"
"$BIN/sknn_query" --host 127.0.0.1 --port "$C1Q_PORT" --query "1,0" --k 2 \
  --api-key "$ADMIN_KEY" --stats > "$WORK/qos_hit" 2>>"$WORK/clients.log"
grep -q "# cache hit" "$WORK/qos_hit"
"$BIN/sknn_query" --host 127.0.0.1 --port "$C1Q_PORT" --query "1,0" --k 2 \
  --api-key "$ADMIN_KEY" --stats --no-cache > "$WORK/qos_bypass" \
  2>>"$WORK/clients.log"
grep -q "# cache miss" "$WORK/qos_bypass" # bypass = fresh protocol run
for f in qos_miss qos_hit qos_bypass; do
  tail -n +2 "$WORK/$f" | grep -v '^#' > "$WORK/got"
  diff -u "$WORK/qos_want" "$WORK/got" || {
    echo "MISMATCH: $f vs plaintext oracle"; exit 1; }
done

echo "== quota: trial key (quota 2) serves twice, then typed ResourceExhausted =="
for q in "0,0" "4,0"; do
  "$BIN/sknn_query" --host 127.0.0.1 --port "$C1Q_PORT" --query "$q" --k 2 \
    --api-key "$TRIAL_KEY" > "$WORK/qos_trial" 2>>"$WORK/clients.log"
  "$BIN/sknn_plain_knn" --csv "$WORK/table.csv" --query "$q" --k 2 \
    > "$WORK/qos_want"
  tail -n +2 "$WORK/qos_trial" > "$WORK/got"
  diff -u "$WORK/qos_want" "$WORK/got" || {
    echo "MISMATCH: trial-key query $q"; exit 1; }
done
set +e
"$BIN/sknn_query" --host 127.0.0.1 --port "$C1Q_PORT" --query "3,0" --k 2 \
  --api-key "$TRIAL_KEY" --retries 0 > /dev/null 2>"$WORK/qos_quota.err"
rc=$?
set -e
[ "$rc" -eq 3 ] || {
  echo "over-quota query: expected exit 3 (resource exhausted), got $rc"
  cat "$WORK/qos_quota.err"; exit 1; }

echo "== per-key and per-table QoS counters over --json --stats =="
"$BIN/sknn_admin" --host 127.0.0.1 --port "$C1Q_PORT" --json --stats \
  > "$WORK/qos_stats.json"
json_assert "$WORK/qos_stats.json" 'd["auth_enabled"] is True'
json_assert "$WORK/qos_stats.json" \
  'sorted(k["id"] for k in d["keys"]) == ["admin", "trial"]'
json_assert "$WORK/qos_stats.json" \
  '{k["id"]: k["completed"] for k in d["keys"]} == {"admin": 3, "trial": 2}'
json_assert "$WORK/qos_stats.json" \
  'next(k for k in d["keys"] if k["id"] == "admin")["quota"] == 0'
json_assert "$WORK/qos_stats.json" \
  'next(k for k in d["keys"] if k["id"] == "trial")["remaining"] == 0'
json_assert "$WORK/qos_stats.json" \
  'next(k for k in d["keys"] if k["id"] == "trial")["quota_rejected"] >= 1'
json_assert "$WORK/qos_stats.json" \
  'd["tables"][0]["cache_hits"] == 1 and d["tables"][0]["cache_misses"] >= 3'
json_assert "$WORK/qos_stats.json" \
  'd["tables"][0]["cache_entries"] >= 1 and d["tables"][0]["cache_bytes"] > 0'

term_and_wait "$C1Q_PID"
term_and_wait "$C2Q_PID"
echo "leg 5 OK: auth gate, quota exhaustion, cache hit/miss/bypass — all typed"
echo "smoke deploy OK: all five legs match the plaintext oracle"
