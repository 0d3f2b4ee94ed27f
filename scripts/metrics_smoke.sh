#!/usr/bin/env bash
# Metrics smoke test: start `rqc serve --http` on an OS-assigned port,
# scrape GET /metrics, and assert the exposition is valid Prometheus
# text carrying the stack's core families.  Run from the repo root:
#
#   scripts/metrics_smoke.sh [path/to/rqc]
#
# Exits non-zero (with the offending scrape) on any violation.
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

"$RQC" serve "$workdir/smoke.dl" --http 127.0.0.1:0 --threads 2 \
  > /dev/null 2> "$workdir/stderr.log" &
server_pid=$!

# The stderr banner carries the bound address:
# `rqc serve --http 127.0.0.1:PORT — N wire worker(s), …`
addr=""
for _ in $(seq 1 50); do
  addr="$(grep -oE '127\.0\.0\.1:[0-9]+' "$workdir/stderr.log" | head -n1 || true)"
  [ -n "$addr" ] && break
  kill -0 "$server_pid" 2>/dev/null || { echo "server died:"; cat "$workdir/stderr.log"; exit 1; } >&2
  sleep 0.1
done
[ -n "$addr" ] || { echo "no bound address in banner:"; cat "$workdir/stderr.log"; exit 1; } >&2

# Drive some traffic so the scrape has non-zero counters.  The ingest
# lands after a warm query, so the publish finds memoized tc state and
# repairs it in place (the delta-repair counters must move).
curl -sf -d '{"query": "tc(a, Y)"}' "http://$addr/query" > /dev/null
curl -sf -d '{"query": "tc(a, Y)"}' "http://$addr/query" > /dev/null
curl -sf -d '{"facts": "e(d, z)."}' "http://$addr/ingest" > /dev/null
curl -sf "http://$addr/healthz" | grep -q '"uptime_seconds"'

scrape="$workdir/metrics.txt"
curl -sf -D "$workdir/headers.txt" "http://$addr/metrics" > "$scrape"

fail() { echo "FAIL: $1" >&2; echo "--- scrape ---" >&2; cat "$scrape" >&2; exit 1; }

grep -qi '^content-type: text/plain; version=0\.0\.4' "$workdir/headers.txt" \
  || { echo "FAIL: wrong content type:"; cat "$workdir/headers.txt"; exit 1; } >&2

# Prometheus text-format validity:
#  * every non-comment line is `name[{labels}] value`;
#  * every sample's family has # HELP and # TYPE lines;
#  * # TYPE is one of counter|gauge|histogram.
awk '
  /^# HELP / { help[$3] = 1; next }
  /^# TYPE / {
    type[$3] = 1
    if ($4 != "counter" && $4 != "gauge" && $4 != "histogram") {
      print "bad TYPE: " $0; exit 1
    }
    next
  }
  /^#/ { next }
  /^$/ { next }
  {
    if ($0 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eE]+$/) {
      print "bad sample line: " $0; exit 1
    }
    name = $1; sub(/\{.*/, "", name)
    base = name; sub(/_(bucket|sum|count)$/, "", base)
    if (!(name in type) && !(base in type)) { print "no TYPE for: " name; exit 1 }
    if (!(name in help) && !(base in help)) { print "no HELP for: " name; exit 1 }
  }
' "$scrape" || fail "exposition format violation"

# Core families: per-endpoint latency histograms, cache hit/miss
# counters, service counters, and report-derived gauges.  The
# result cache's refusal counter stays 0: three requests are far below
# its admission allowance.
for needle in \
  '# TYPE rq_http_request_seconds histogram' \
  'rq_http_request_seconds_bucket{endpoint="/query",le="+Inf"} 2' \
  'rq_http_request_seconds_count{endpoint="/query"} 2' \
  'rq_http_requests_total{endpoint="/query"} 2' \
  'rq_result_cache_hits_total 1' \
  'rq_result_cache_misses_total 1' \
  '# TYPE rq_result_cache_refused_total counter' \
  'rq_result_cache_refused_total 0' \
  '# TYPE rq_plan_cache_hits_total counter' \
  'rq_queries_total 2' \
  'rq_ingests_total 1' \
  '# TYPE rq_engine_graph_nodes_total counter' \
  '# TYPE rq_engine_tuples_retrieved_total counter' \
  '# TYPE rq_engine_rule_firings_total counter' \
  '# TYPE rq_engine_iterations_total counter' \
  '# TYPE rq_engine_index_probes_total counter' \
  'rq_epoch 1' \
  '# TYPE rq_http_in_flight gauge' \
  '# TYPE rq_csr_builds_total counter' \
  'rq_csr_build_seconds_count 2' \
  '# TYPE rq_csr_probes_total counter' \
  '# TYPE rq_trie_probes_total counter' \
  '# TYPE rq_delta_repairs_total counter' \
  'rq_delta_repairs_total 1' \
  '# TYPE rq_delta_repaired_rows_total counter' \
  'rq_delta_fallback_cold_total 0'
do
  grep -qF "$needle" "$scrape" || fail "missing: $needle"
done

# The smoke program's epoch-0 publish builds stores for `e` and `tc`,
# and the two `tc(a, Y)` queries read `e` through its CSR: the compact
# path must actually serve probes, not just exist.
csr_probes="$(grep -E '^rq_csr_probes_total [0-9]+$' "$scrape" | awk '{print $2}')"
[ -n "$csr_probes" ] && [ "$csr_probes" -gt 0 ] \
  || fail "rq_csr_probes_total not positive (got: ${csr_probes:-missing})"

# Every `Counters` field is exported; the two `tc(a, Y)` queries
# retrieve base tuples, so the paper's unit-cost `t` must have moved.
tuples="$(grep -E '^rq_engine_tuples_retrieved_total [0-9]+$' "$scrape" | awk '{print $2}')"
[ -n "$tuples" ] && [ "$tuples" -gt 0 ] \
  || fail "rq_engine_tuples_retrieved_total not positive (got: ${tuples:-missing})"

echo "metrics smoke OK ($addr, $(grep -c '^# TYPE' "$scrape") families)"
