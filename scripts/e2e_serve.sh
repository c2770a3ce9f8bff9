#!/usr/bin/env bash
# End-to-end smoke test of the embedding-store service: build qse-serve,
# build a durable bundle from the synthetic series dataset, serve it, and
# drive the HTTP API with curl. Run from the repository root; CI runs it
# on every push.
set -euo pipefail

workdir=$(mktemp -d)
addr=127.0.0.1:18092
bundle="$workdir/qse.bundle"
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

# expect PATTERN CMD...: run CMD, require PATTERN in its output.
expect() {
  local pattern=$1
  shift
  local out
  out=$("$@" 2>&1)
  if ! grep -q "$pattern" <<<"$out"; then
    echo "FAIL: output of '$*' lacks '$pattern':" >&2
    echo "$out" >&2
    exit 1
  fi
}

echo "== building qse-serve"
go build -o "$workdir/qse-serve" ./cmd/qse-serve

echo "== building bundle from the synthetic dataset"
"$workdir/qse-serve" -dataset series -db 120 -rounds 6 -triples 600 \
  -candidates 20 -pool 40 -bundle "$bundle" -build-only
test -s "$bundle"
# The v3 layout: manifest + base section + delta log, even unsharded.
test -s "$bundle.shard-000-of-001.base"
test -s "$bundle.shard-000-of-001.delta"

echo "== qse-query serves from the bundle without dataset regeneration"
expect "0 exact distances" \
  go run ./cmd/qse-query -bundle "$bundle" -dataset series -n 2 -k 2 -p 20

echo "== serving the bundle"
"$workdir/qse-serve" -bundle "$bundle" -addr "$addr" &
pid=$!

for i in $(seq 1 100); do
  curl -fsS "http://$addr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done

echo "== GET /healthz"
expect '"status":"ok"' curl -fsS "http://$addr/healthz"

echo "== POST /v1/search (by stored id)"
expect '"results"' curl -fsS -X POST "http://$addr/v1/search" \
  -d '{"id":0,"k":3,"p":24}'

echo "== POST /v1/search (inline query)"
expect '"results"' curl -fsS -X POST "http://$addr/v1/search" \
  -d '{"query":[[0.1,0.2],[0.3,0.4],[0.5,0.6]],"k":2}'

echo "== mutations under load: add + remove"
expect '"id":120' curl -fsS -X POST "http://$addr/v1/objects" \
  -d '{"object":[[0.1,0.2],[0.3,0.4]]}'
expect '"removed":120' curl -fsS -X DELETE "http://$addr/v1/objects/120"

echo "== PUT /v1/objects/{id} upsert round-trip: replace, keep the ID"
expect '"id":3' curl -fsS -X PUT "http://$addr/v1/objects/3" \
  -d '{"object":[[0.9,0.8],[0.7,0.6]]}'
expect '"results"' curl -fsS -X POST "http://$addr/v1/search" \
  -d '{"id":3,"k":1}'
expect 'unknown' curl -sS -X PUT "http://$addr/v1/objects/424242" \
  -d '{"object":[[0.9,0.8],[0.7,0.6]]}'

echo "== GET /v1/stats reflects the traffic and the segment layout"
expect '"generation":3' curl -fsS "http://$addr/v1/stats"
expect '"search"' curl -fsS "http://$addr/v1/stats"
expect '"upsert"' curl -fsS "http://$addr/v1/stats"
# The add landed in the delta segment and the remove tombstoned it; the
# upsert added one more delta row and one more tombstone.
expect '"delta_size":2' curl -fsS "http://$addr/v1/stats"
expect '"tombstones":2' curl -fsS "http://$addr/v1/stats"
expect '"size":120' curl -fsS "http://$addr/v1/stats"
# Metrics depth: the scheduling signals the v3 lifecycle exposes.
expect '"delta_scan_share"' curl -fsS "http://$addr/v1/stats"
expect '"last_snapshot_bytes"' curl -fsS "http://$addr/v1/stats"
expect '"last_compaction_us"' curl -fsS "http://$addr/v1/stats"
# Histogram-derived latency quantiles appear once traffic has flowed.
expect '"p99_latency_us"' curl -fsS "http://$addr/v1/stats"

echo "== GET /metrics serves the Prometheus exposition after real traffic"
expect 'qse_http_requests_total{endpoint="search"}' \
  curl -fsS "http://$addr/metrics"
expect 'qse_http_request_duration_seconds_bucket{endpoint="search",le="+Inf"}' \
  curl -fsS "http://$addr/metrics"
expect 'qse_search_stage_duration_seconds_count{stage="filter_base"}' \
  curl -fsS "http://$addr/metrics"
# Store gauges refresh on scrape: the mutation phase left 120 live rows.
expect 'qse_store_size 120' curl -fsS "http://$addr/metrics"
expect 'qse_store_delta_rows 2' curl -fsS "http://$addr/metrics"
expect 'qse_store_degraded_persistence 0' curl -fsS "http://$addr/metrics"

echo "== GET /v1/debug/slow exposes the per-stage breakdown"
expect '"filter_base_us"' curl -fsS "http://$addr/v1/debug/slow"
expect '"refine_us"' curl -fsS "http://$addr/v1/debug/slow"
expect '"endpoint":"search"' curl -fsS "http://$addr/v1/debug/slow"

echo "== graceful shutdown writes a final snapshot"
kill -TERM "$pid"
wait "$pid"
pid=""
expect "store ready: 120 objects" "$workdir/qse-serve" -bundle "$bundle" -build-only

# ---- sharded layout: build S=4, serve, mutate, drain, reopen ----

saddr=127.0.0.1:18093
sbundle="$workdir/qse-sharded.bundle"

echo "== building a sharded bundle (S=4)"
"$workdir/qse-serve" -dataset series -db 120 -rounds 6 -triples 600 \
  -candidates 20 -pool 40 -bundle "$sbundle" -shards 4 -build-only
test -s "$sbundle"
for sect in base delta; do
  shardfiles=$(ls "$sbundle".shard-*-of-*."$sect" | wc -l)
  if [ "$shardfiles" -ne 4 ]; then
    echo "FAIL: expected 4 $sect sections next to the manifest, found $shardfiles" >&2
    exit 1
  fi
done

echo "== qse-query reads the sharded layout with zero exact distances"
expect "0 exact distances" \
  go run ./cmd/qse-query -bundle "$sbundle" -dataset series -n 2 -k 2 -p 20
expect "4 shard(s)" \
  go run ./cmd/qse-query -bundle "$sbundle" -dataset series -n 1 -k 1 -p 10

echo "== serving the sharded bundle"
"$workdir/qse-serve" -bundle "$sbundle" -addr "$saddr" &
pid=$!

for i in $(seq 1 100); do
  curl -fsS "http://$saddr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done

echo "== scatter-gather search over the shards"
expect '"results"' curl -fsS -X POST "http://$saddr/v1/search" \
  -d '{"id":0,"k":3,"p":24}'
expect '"results"' curl -fsS -X POST "http://$saddr/v1/search" \
  -d '{"query":[[0.1,0.2],[0.3,0.4],[0.5,0.6]],"k":2}'

echo "== mutations route to their shards"
expect '"id":120' curl -fsS -X POST "http://$saddr/v1/objects" \
  -d '{"object":[[0.1,0.2],[0.3,0.4]]}'
expect '"removed":120' curl -fsS -X DELETE "http://$saddr/v1/objects/120"

echo "== /v1/stats exposes the shard layout and per-shard detail"
expect '"shards":4' curl -fsS "http://$saddr/v1/stats"
expect '"shard_detail"' curl -fsS "http://$saddr/v1/stats"
expect '"generation":2' curl -fsS "http://$saddr/v1/stats"
expect '"size":120' curl -fsS "http://$saddr/v1/stats"

echo "== graceful shutdown snapshots the sharded layout"
kill -TERM "$pid"
wait "$pid"
pid=""
expect "store ready: 120 objects" "$workdir/qse-serve" -bundle "$sbundle" -build-only
expect "4 shards" "$workdir/qse-serve" -bundle "$sbundle" -build-only

# ---- incremental snapshots: one dirty shard touches one delta file ----

echo "== serving again; a single upsert dirties exactly one shard"
cksum "$sbundle" "$sbundle".shard-*-of-*.base "$sbundle".shard-*-of-*.delta \
  > "$workdir/before.cksum"

"$workdir/qse-serve" -bundle "$sbundle" -addr "$saddr" &
pid=$!
for i in $(seq 1 100); do
  curl -fsS "http://$saddr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done

expect '"id":0' curl -fsS -X PUT "http://$saddr/v1/objects/0" \
  -d '{"object":[[0.45,0.35],[0.25,0.15]]}'
expect '"results"' curl -fsS -X POST "http://$saddr/v1/search" \
  -d '{"id":0,"k":2}'

kill -TERM "$pid"
wait "$pid"
pid=""

cksum "$sbundle" "$sbundle".shard-*-of-*.base "$sbundle".shard-*-of-*.delta \
  > "$workdir/after.cksum"
changed=$(diff "$workdir/before.cksum" "$workdir/after.cksum" | grep '^>' | awk '{print $NF}' || true)
count=$(echo "$changed" | grep -c . || true)
if [ "$count" -ne 1 ]; then
  echo "FAIL: incremental snapshot changed $count files, want exactly 1 delta log:" >&2
  echo "$changed" >&2
  exit 1
fi
case "$changed" in
  *.delta) ;;
  *)
    echo "FAIL: incremental snapshot rewrote a non-delta file: $changed" >&2
    exit 1
    ;;
esac
echo "   one dirty shard -> only $(basename "$changed") changed"

echo "== the upsert survives the incremental snapshot"
expect "store ready: 120 objects" "$workdir/qse-serve" -bundle "$sbundle" -build-only

# ---- metadata + filtered search: add, filter, snapshot, reopen, same answers ----

maddr=127.0.0.1:18095

echo "== serving the sharded bundle for the metadata phase"
"$workdir/qse-serve" -bundle "$sbundle" -addr "$maddr" &
pid=$!
for i in $(seq 1 100); do
  curl -fsS "http://$maddr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done

echo "== POST /v1/objects with typed metadata"
expect '"id":121' curl -fsS -X POST "http://$maddr/v1/objects" \
  -d '{"object":[[0.11,0.21],[0.31,0.41]],"metadata":{"tenant":"acme","ts":1700000000}}'
expect '"id":122' curl -fsS -X POST "http://$maddr/v1/objects" \
  -d '{"object":[[0.12,0.22],[0.32,0.42]],"metadata":{"tenant":"globex","ts":1800000000}}'

echo "== filtered search returns only matching objects"
fbody='{"query":[[0.11,0.21],[0.31,0.41]],"k":5,"p":200,"filter":{"and":[{"field":"tenant","eq":"acme"},{"field":"ts","lt":1750000000}]}}'
curl -fsS -X POST "http://$maddr/v1/search" -d "$fbody" > "$workdir/filtered.before"
grep -q '"id":121' "$workdir/filtered.before" || {
  echo "FAIL: filtered search missed the matching object:" >&2
  cat "$workdir/filtered.before" >&2
  exit 1
}
if grep -q '"id":122' "$workdir/filtered.before"; then
  echo "FAIL: filtered search leaked a non-matching tenant:" >&2
  cat "$workdir/filtered.before" >&2
  exit 1
fi

echo "== a filter matching nothing answers 200 with empty results"
expect '"results":\[\]' curl -fsS -X POST "http://$maddr/v1/search" \
  -d '{"query":[[0.1,0.2],[0.3,0.4]],"k":3,"filter":{"field":"tenant","eq":"initech"}}'

echo "== an unknown filter field is a 400 that names the field"
code=$(curl -s -o "$workdir/badfilter" -w '%{http_code}' -X POST "http://$maddr/v1/search" \
  -d '{"query":[[0.1,0.2],[0.3,0.4]],"k":3,"filter":{"field":"tennant","eq":"acme"}}')
if [ "$code" != "400" ] || ! grep -q 'tennant' "$workdir/badfilter"; then
  echo "FAIL: unknown filter field answered $code ($(cat "$workdir/badfilter"))" >&2
  exit 1
fi

echo "== the filter planner surfaces in /v1/stats and /metrics"
expect '"plan_inline"' curl -fsS "http://$maddr/v1/stats"
expect '"tenant"' curl -fsS "http://$maddr/v1/stats"
expect 'qse_filter_field_selectivity{field="tenant"}' curl -fsS "http://$maddr/metrics"
expect 'qse_filter_plan_choices_total{plan="inline"}' curl -fsS "http://$maddr/metrics"

echo "== graceful shutdown snapshots the metadata"
kill -TERM "$pid"
wait "$pid"
pid=""

echo "== reopening serves identical filtered results"
"$workdir/qse-serve" -bundle "$sbundle" -addr "$maddr" &
pid=$!
for i in $(seq 1 100); do
  curl -fsS "http://$maddr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS -X POST "http://$maddr/v1/search" -d "$fbody" > "$workdir/filtered.after"
if ! cmp -s "$workdir/filtered.before" "$workdir/filtered.after"; then
  echo "FAIL: filtered results changed across snapshot + reopen:" >&2
  diff "$workdir/filtered.before" "$workdir/filtered.after" >&2 || true
  exit 1
fi
echo "   filtered results byte-identical across restart"

echo "== removing the metadata objects restores the pre-phase store"
expect '"removed":121' curl -fsS -X DELETE "http://$maddr/v1/objects/121"
expect '"removed":122' curl -fsS -X DELETE "http://$maddr/v1/objects/122"
kill -TERM "$pid"
wait "$pid"
pid=""
expect "store ready: 120 objects" "$workdir/qse-serve" -bundle "$sbundle" -build-only

# ---- quantized shadow: 8 bits on, answers byte-identical, setting persists ----

qaddr=127.0.0.1:18096
qbundle="$workdir/qse-quant.bundle"

echo "== widths other than 0 and 8 are rejected up front"
for bits in 3 4; do
  if "$workdir/qse-serve" -bundle "$bundle" -quantize-bits "$bits" -build-only \
      2> "$workdir/qbits.err"; then
    echo "FAIL: -quantize-bits $bits was accepted" >&2
    exit 1
  fi
  grep -q 'supported widths' "$workdir/qbits.err"
done

echo "== copying the unsharded bundle for the quantized phase"
for f in "$bundle" "$bundle".shard-*; do
  cp "$f" "$workdir/$(basename "$f" | sed 's/^qse\.bundle/qse-quant.bundle/')"
done

qbody1='{"id":0,"k":5,"p":40}'
qbody2='{"query":[[0.1,0.2],[0.3,0.4],[0.5,0.6]],"k":4,"p":60}'

echo "== exact baseline answers (no quantization)"
"$workdir/qse-serve" -bundle "$qbundle" -addr "$qaddr" -quantize-bits 0 &
pid=$!
for i in $(seq 1 100); do
  curl -fsS "http://$qaddr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS -X POST "http://$qaddr/v1/search" -d "$qbody1" > "$workdir/quant.exact1"
curl -fsS -X POST "http://$qaddr/v1/search" -d "$qbody2" > "$workdir/quant.exact2"
kill -TERM "$pid"
wait "$pid"
pid=""

echo "== serving with -quantize-bits 8: 120 rows sit below the size gate, same answers"
"$workdir/qse-serve" -bundle "$qbundle" -addr "$qaddr" -quantize-bits 8 &
pid=$!
for i in $(seq 1 100); do
  curl -fsS "http://$qaddr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
expect '"quantize_bits":8' curl -fsS "http://$qaddr/v1/stats"
expect '"shadow_bytes":0' curl -fsS "http://$qaddr/v1/stats"
curl -fsS -X POST "http://$qaddr/v1/search" -d "$qbody1" > "$workdir/quant.q1"
curl -fsS -X POST "http://$qaddr/v1/search" -d "$qbody2" > "$workdir/quant.q2"
for n in 1 2; do
  if ! cmp -s "$workdir/quant.exact$n" "$workdir/quant.q$n"; then
    echo "FAIL: 8-bit search response $n differs from the exact scan:" >&2
    diff "$workdir/quant.exact$n" "$workdir/quant.q$n" >&2 || true
    exit 1
  fi
done
echo "   8-bit responses byte-identical to the exact scan"

echo "== shadow gauges surface in /v1/stats and /metrics, per-width series are gone"
expect '"bound_scanned_rows":0' curl -fsS "http://$qaddr/v1/stats"
expect 'qse_store_quantize_bits 8' curl -fsS "http://$qaddr/metrics"
expect 'qse_store_shadow_bytes 0' curl -fsS "http://$qaddr/metrics"
for gone in shadow_bits bound_widths; do
  if curl -fsS "http://$qaddr/v1/stats" | grep -q "\"$gone\""; then
    echo "FAIL: /v1/stats still reports $gone" >&2
    exit 1
  fi
done
if curl -fsS "http://$qaddr/metrics" | grep -q -e 'qse_store_shadow_bits' -e '_by_width'; then
  echo "FAIL: /metrics still exports the shadow_bits alias or a per-width series" >&2
  exit 1
fi

echo "== graceful shutdown snapshots the setting"
kill -TERM "$pid"
wait "$pid"
pid=""

echo "== reopening without the flag keeps 8 bits and the answers"
"$workdir/qse-serve" -bundle "$qbundle" -addr "$qaddr" &
pid=$!
for i in $(seq 1 100); do
  curl -fsS "http://$qaddr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
expect '"quantize_bits":8' curl -fsS "http://$qaddr/v1/stats"
curl -fsS -X POST "http://$qaddr/v1/search" -d "$qbody1" > "$workdir/quant.r1"
curl -fsS -X POST "http://$qaddr/v1/search" -d "$qbody2" > "$workdir/quant.r2"
for n in 1 2; do
  if ! cmp -s "$workdir/quant.exact$n" "$workdir/quant.r$n"; then
    echo "FAIL: reopened 8-bit response $n differs from the exact scan:" >&2
    diff "$workdir/quant.exact$n" "$workdir/quant.r$n" >&2 || true
    exit 1
  fi
done
echo "   setting persisted across snapshot + reopen, answers unchanged"
kill -TERM "$pid"
wait "$pid"
pid=""

# ---- resilience: readiness, load shedding, degraded persistence, exit codes ----

raddr=127.0.0.1:18094
delta="$bundle.shard-000-of-001.delta"

echo "== serving with a tight in-flight gate and fast snapshots"
"$workdir/qse-serve" -bundle "$bundle" -addr "$raddr" \
  -max-inflight 1 -snapshot-every 100ms -snapshot-retries 0 &
pid=$!
for i in $(seq 1 100); do
  curl -fsS "http://$raddr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done

echo "== GET /readyz reports ready (distinct from /healthz)"
expect '"ready":true' curl -fsS "http://$raddr/readyz"

echo "== driving past -max-inflight 1 sheds excess load with 429"
batch='{"queries":['
for i in $(seq 1 64); do batch+='[[0.1,0.2],[0.3,0.4],[0.5,0.6]],'; done
batch="${batch%,}],\"k\":3,\"p\":40}"
shed=0
for round in 1 2 3 4 5; do
  : > "$workdir/codes"
  curlpids=()
  for i in $(seq 1 32); do
    curl -s -o /dev/null -w '%{http_code}\n' -X POST \
      "http://$raddr/v1/search/batch" -d "$batch" >> "$workdir/codes" &
    curlpids+=($!)
  done
  wait "${curlpids[@]}"
  if grep -q '^429$' "$workdir/codes" && grep -q '^200$' "$workdir/codes"; then
    shed=1
    break
  fi
done
if [ "$shed" -ne 1 ]; then
  echo "FAIL: no 429 (or no 200) observed across 5 rounds of 32 concurrent batches:" >&2
  sort "$workdir/codes" | uniq -c >&2
  exit 1
fi
echo "   saw both 200 and 429 under concurrent load"

echo "== after the stampede the gate drains and the server recovers"
expect '"results"' curl -fsS -X POST "http://$raddr/v1/search" -d '{"id":0,"k":2}'
expect '"ready":true' curl -fsS "http://$raddr/readyz"

echo "== degraded persistence: snapshots fail loudly, serving continues"
# Make the delta log unwritable by replacing it with a directory, then
# dirty the store so every snapshot tick has something to write (order
# matters: a clean store snapshots nothing, and a tick landing between
# the add and the breakage would persist the frame early).
mv "$delta" "$delta.bak"
mkdir "$delta"
expect '"id":121' curl -fsS -X POST "http://$raddr/v1/objects" \
  -d '{"object":[[0.1,0.2],[0.3,0.4]]}'
code=""
for i in $(seq 1 100); do
  code=$(curl -s -o /dev/null -w '%{http_code}' "http://$raddr/readyz")
  [ "$code" = "503" ] && break
  sleep 0.1
done
if [ "$code" != "503" ]; then
  echo "FAIL: /readyz stayed $code under sustained snapshot failure, want 503" >&2
  exit 1
fi
expect '"degraded_persistence":true' curl -fsS "http://$raddr/v1/stats"
expect '"last_snapshot_error"' curl -fsS "http://$raddr/v1/stats"
expect '"results"' curl -fsS -X POST "http://$raddr/v1/search" -d '{"id":0,"k":2}'
expect '"status":"ok"' curl -fsS "http://$raddr/healthz"
echo "   /readyz 503 + stats degraded while /v1/search keeps answering"

echo "== healing the filesystem restores readiness"
rmdir "$delta"
mv "$delta.bak" "$delta"
code=""
for i in $(seq 1 100); do
  code=$(curl -s -o /dev/null -w '%{http_code}' "http://$raddr/readyz")
  [ "$code" = "200" ] && break
  sleep 0.1
done
if [ "$code" != "200" ]; then
  echo "FAIL: /readyz stayed $code after the fault healed, want 200" >&2
  exit 1
fi
expect '"degraded_persistence":false' curl -fsS "http://$raddr/v1/stats"

kill -TERM "$pid"
wait "$pid"
pid=""
expect "store ready: 121 objects" "$workdir/qse-serve" -bundle "$bundle" -build-only

echo "== a failed final snapshot makes qse-serve exit non-zero"
"$workdir/qse-serve" -bundle "$bundle" -addr "$raddr" -snapshot-retries 0 &
pid=$!
for i in $(seq 1 100); do
  curl -fsS "http://$raddr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
expect '"id":122' curl -fsS -X POST "http://$raddr/v1/objects" \
  -d '{"object":[[0.2,0.1],[0.4,0.3]]}'
mv "$delta" "$delta.bak"
mkdir "$delta"
kill -TERM "$pid"
set +e
wait "$pid"
code=$?
set -e
pid=""
if [ "$code" -eq 0 ]; then
  echo "FAIL: qse-serve exited 0 although the final snapshot failed" >&2
  exit 1
fi
echo "   exit code $code after failed final snapshot"
rmdir "$delta"
mv "$delta.bak" "$delta"
# The lineage on disk is the last durable state: the 121 objects from
# before the broken final snapshot, not the lost 122nd.
expect "store ready: 121 objects" "$workdir/qse-serve" -bundle "$bundle" -build-only

echo "e2e serve: OK"
