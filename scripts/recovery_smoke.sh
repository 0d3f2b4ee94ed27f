#!/usr/bin/env bash
# Recovery smoke test: start `rqc serve --http --data-dir` on an
# OS-assigned port, make 18 durable ingests (so a checkpoint is written
# at epoch 16, the default interval, and two records follow it),
# SIGKILL the server, restart it on the same data dir, and assert (a)
# the recovery banner reports the pre-crash epoch, restored from the
# epoch-16 checkpoint plus 2 replayed records, (b) queries answer
# identically to the pre-crash service, and (c) /metrics carries the
# rq_recovery_* and rq_wal_* families with the right values.  The
# ingests interleave `e` with a predicate the program does not have,
# carry integer constants, and include a duplicate fact, so the
# checkpoint holds new predicates, constants and facts.  Run from the
# repo root:
#
#   scripts/recovery_smoke.sh [path/to/rqc]
#
# Exits non-zero (with the offending output) on any violation.
set -euo pipefail

RQC="${1:-target/release/rqc}"
[ -x "$RQC" ] || { echo "no rqc binary at $RQC (build with: cargo build --release)" >&2; exit 1; }

workdir="$(mktemp -d)"
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

cat > "$workdir/smoke.dl" <<'EOF'
tc(X,Y) :- e(X,Y).
tc(X,Z) :- e(X,Y), tc(Y,Z).
e(a,b). e(b,c). e(c,d).
EOF
datadir="$workdir/data"
mkdir -p "$datadir"

# Spawn the server and wait for the bound-address stderr banner.  With
# --data-dir a recovery banner precedes it, so grep, don't head -1.
spawn() {
  "$RQC" serve "$workdir/smoke.dl" --http 127.0.0.1:0 --threads 2 \
    --data-dir "$datadir" > /dev/null 2> "$workdir/stderr.log" &
  server_pid=$!
  addr=""
  for _ in $(seq 1 50); do
    addr="$(grep -oE '127\.0\.0\.1:[0-9]+' "$workdir/stderr.log" | head -n1 || true)"
    [ -n "$addr" ] && break
    kill -0 "$server_pid" 2>/dev/null || { echo "server died:"; cat "$workdir/stderr.log"; exit 1; } >&2
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "no bound address in banner:"; cat "$workdir/stderr.log"; exit 1; } >&2
}

fail() { echo "FAIL: $1" >&2; echo "--- stderr ---" >&2; cat "$workdir/stderr.log" >&2; exit 1; }

# The k-th ingest (1..18): odd ones extend the `e` chain from `d`, even
# ones add a `w` fact with an integer; the 9th also repeats `e(a,b)`.
facts() {
  local k=$1
  if [ $((k % 2)) -eq 1 ]; then
    local from=d
    [ "$k" -gt 1 ] && from="n$((k - 2))"
    local extra=""
    [ "$k" -eq 9 ] && extra=" e(a, b)."
    echo "e($from, n$k).$extra"
  else
    echo "w(n$((k - 1)), $((k * 100)))."
  fi
}

# First life: 18 durable ingests, a reference answer, then SIGKILL.
spawn
for k in $(seq 1 18); do
  curl -sf -d "{\"facts\": \"$(facts "$k")\"}" "http://$addr/ingest" \
    | grep -qF '"durable":true' || fail "ingest $k ack not durable"
done
curl -sf -d '{"query": "tc(a, Y)"}' "http://$addr/query" > "$workdir/before.json"
grep -qF '"epoch":18' "$workdir/before.json" || fail "pre-crash epoch is not 18"
curl -sf "http://$addr/metrics" | grep -qF 'rq_wal_checkpoints_total 1' \
  || fail "no checkpoint written before the crash"
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

# Second life, same data dir: banner + byte-identical answer.
spawn
grep -qF 'recovered to epoch 18 (epoch 16 checkpoint, 2 replayed' "$workdir/stderr.log" \
  || fail "missing recovery banner, or not from the epoch-16 checkpoint plus 2 records"
curl -sf -d '{"query": "tc(a, Y)"}' "http://$addr/query" > "$workdir/after.json"
cmp -s "$workdir/before.json" "$workdir/after.json" \
  || fail "post-recovery answer differs from pre-crash answer"

# The scrape carries the recovery gauges and WAL counters.
scrape="$workdir/metrics.txt"
curl -sf "http://$addr/metrics" > "$scrape"
for needle in \
  '# TYPE rq_recovery_epoch gauge' \
  'rq_recovery_epoch 18' \
  'rq_recovery_replayed_records 2' \
  'rq_recovery_checkpoint_epoch 16' \
  'rq_recovery_dropped_records 0' \
  'rq_recovery_checkpoint_dropped 0' \
  '# TYPE rq_wal_records_total counter' \
  '# TYPE rq_wal_checkpoints_total counter' \
  'rq_wal_checkpoint_failures_total 0'
do
  grep -qF "$needle" "$scrape" \
    || { echo "FAIL: missing: $needle" >&2; echo "--- scrape ---" >&2; cat "$scrape" >&2; exit 1; }
done

echo "recovery smoke OK ($addr, recovered to epoch 18 from the epoch-16 checkpoint)"
