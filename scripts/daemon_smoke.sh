#!/usr/bin/env bash
# daemon_smoke.sh — end-to-end smoke test of the qccdd sweep grammar.
#
# Part 1 (single daemon): builds and starts the daemon, streams a small
# grammar sweep to completion as a reference, then repeats the sweep but
# kills the connection mid-stream (head closes the pipe after a few rows)
# and resumes from the last received row's cursor. The union of sequence
# numbers from the partial and resumed streams must be exactly the full
# expansion range, each index once — no gaps, no duplicates. Then checks
# the sweep progress registry, and pages a materialized points list with
# one repeated point by limit and next_cursor: the pages must carry the
# header line and together cover every index once, and the repeat's
# later copy must be served by the cache.
#
# Part 2 (multi-replica scale-out): starts two replicas sharing one
# -cache-dir, streams disjoint shards of the full paper grammar to each,
# kills one replica with SIGKILL mid-stream, relaunches it, resumes from
# the last received cursor, and verifies the union of all received rows is
# exactly the 576-point paper grid — then proves the shared persistent
# tier by re-serving the whole grid from one replica with zero new
# computations.
#
# Uses only curl + POSIX text tools, so it runs on a bare CI image.
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${QCCDD_PORT:-18080}"
PORT_A="${QCCDD_PORT_A:-18081}"
PORT_B="${QCCDD_PORT_B:-18082}"
BASE="http://127.0.0.1:${PORT}"
BASE_A="http://127.0.0.1:${PORT_A}"
BASE_B="http://127.0.0.1:${PORT_B}"
TMP="$(mktemp -d)"
DAEMON_PID=""
PID_A=""
PID_B=""
cleanup() {
  for pid in "$DAEMON_PID" "$PID_A" "$PID_B"; do
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
  done
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() { echo "daemon_smoke: FAIL: $*" >&2; exit 1; }

wait_healthy() { # wait_healthy BASE_URL
  for _ in $(seq 1 100); do
    curl -sf "$1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  curl -sf "$1/healthz" >/dev/null || fail "daemon at $1 did not become healthy"
}

echo "== building qccdd"
go build -o "$TMP/qccdd" ./cmd/qccdd

echo "== starting daemon on :${PORT}"
"$TMP/qccdd" -addr "127.0.0.1:${PORT}" &
DAEMON_PID=$!

wait_healthy "$BASE"

# 2 apps x 2 topologies x 2 capacities = 8 points, expanded lazily
# server-side. BV is cheap enough for a smoke test.
SPACE='{"apps":["BV@8","BV@12"],"topologies":["L2","L3"],"capacities":[14,18]}'
NPOINTS=8

echo "== reference: full grammar sweep"
curl -sN -X POST "$BASE/v1/sweep" -d "{\"space\":$SPACE}" > "$TMP/full.ndjson"
# header + one row per point + summary
LINES=$(wc -l < "$TMP/full.ndjson")
[ "$LINES" -eq $((NPOINTS + 2)) ] || { cat "$TMP/full.ndjson" >&2; fail "full sweep: $LINES lines, want $((NPOINTS + 2))"; }
grep -q '"done":true' "$TMP/full.ndjson" || fail "full sweep: no summary line"

echo "== kill mid-stream after 3 rows"
# head exits after 4 lines (header + 3 rows) and closes the pipe; curl
# dies on the broken pipe, which is the point — simulate a dropped client.
set +e +o pipefail
curl -sN -X POST "$BASE/v1/sweep" -d "{\"space\":$SPACE,\"workers\":1}" | head -n 4 > "$TMP/partial.ndjson"
set -e -o pipefail
PARTIAL_ROWS=$(grep -c '"seq":' "$TMP/partial.ndjson" || true)
[ "$PARTIAL_ROWS" -eq 3 ] || { cat "$TMP/partial.ndjson" >&2; fail "partial stream: $PARTIAL_ROWS rows, want 3"; }

CURSOR=$(tail -n 1 "$TMP/partial.ndjson" | grep -o '"cursor":"[^"]*"' | sed 's/"cursor":"//;s/"$//')
[ -n "$CURSOR" ] || fail "no cursor on last received row"
echo "   resuming from cursor $CURSOR"

echo "== resume from last received cursor"
curl -sN -X POST "$BASE/v1/sweep" -d "{\"space\":$SPACE,\"resume_from\":\"$CURSOR\"}" > "$TMP/resumed.ndjson"
grep -q '"done":true' "$TMP/resumed.ndjson" || { cat "$TMP/resumed.ndjson" >&2; fail "resumed sweep: no summary line"; }

echo "== verify: partial + resumed = every index exactly once"
{ grep -o '"seq":[0-9]*' "$TMP/partial.ndjson"; grep -o '"seq":[0-9]*' "$TMP/resumed.ndjson"; } \
  | sed 's/"seq"://' | sort -n > "$TMP/got-seqs.txt"
seq 0 $((NPOINTS - 1)) > "$TMP/want-seqs.txt"
diff -u "$TMP/want-seqs.txt" "$TMP/got-seqs.txt" || fail "sequence union has gaps or duplicates"

echo "== verify: resumed rows were cache hits (no recomputation)"
# The full reference run already computed every point, so the resumed
# window must be served entirely from the content-addressed cache.
RESUMED_ROWS=$(grep -c '"seq":' "$TMP/resumed.ndjson")
HITS=$(grep -o '"cache_hits":[0-9]*' "$TMP/resumed.ndjson" | tail -n 1 | sed 's/.*://')
[ "$HITS" -eq "$RESUMED_ROWS" ] || fail "resumed sweep recomputed points: $HITS cache hits for $RESUMED_ROWS rows"

echo "== verify: progress registry"
SWEEP_ID=$(head -n 1 "$TMP/resumed.ndjson" | grep -o '"sweep_id":"[^"]*"' | sed 's/"sweep_id":"//;s/"$//')
[ -n "$SWEEP_ID" ] || fail "resumed header has no sweep_id"
curl -sf "$BASE/v1/sweeps/$SWEEP_ID" > "$TMP/status.json"
grep -q '"done":true' "$TMP/status.json" || { cat "$TMP/status.json" >&2; fail "sweep $SWEEP_ID not done in registry"; }
grep -q '"start_index":3' "$TMP/status.json" || { cat "$TMP/status.json" >&2; fail "resumed sweep did not start at index 3"; }
# All three sweeps (reference, interrupted, resumed) ran the same grammar,
# so the registry must list three sweeps sharing one space hash. (A sweep
# this small can finish before the kernel surfaces the broken pipe, so
# client_dropped is not asserted here — the in-process tests cover it.)
curl -sf "$BASE/v1/sweeps" > "$TMP/sweeps.json"
HASHES=$(grep -o '"space_hash":"[^"]*"' "$TMP/sweeps.json" | sort | uniq -c | sed 's/^ *//')
echo "   registry: $HASHES"
[ "$(echo "$HASHES" | wc -l)" -eq 1 ] || fail "registry has sweeps for more than one space"
[ "$(echo "$HASHES" | sed 's/ .*//')" -eq 3 ] || fail "registry does not list all three sweeps"

echo "== points form: framed like a grammar, paged by limit and next_cursor"
# A points list streams a header, rows with cursors and a summary, as a
# grammar does. The later copy of the repeated point is always the cache
# hit: it shares its first copy's compile group, or, as here, comes on a
# later page.
POINTS='[{"app":"BV@8","topology":"L4","capacity":14},{"app":"BV@8","topology":"L4","capacity":18},{"app":"BV@8","topology":"L4","capacity":14},{"app":"BV@12","topology":"L4","capacity":14}]'
curl -sN -X POST "$BASE/v1/sweep" -d "{\"points\":$POINTS,\"limit\":2}" > "$TMP/points1.ndjson"
head -n 1 "$TMP/points1.ndjson" | grep -q '"grid_size":4,' || { cat "$TMP/points1.ndjson" >&2; fail "points page 1: no header line"; }
NEXT=$(tail -n 1 "$TMP/points1.ndjson" | grep -o '"next_cursor":"[^"]*"' | sed 's/"next_cursor":"//;s/"$//')
[ -n "$NEXT" ] || { cat "$TMP/points1.ndjson" >&2; fail "points page 1: no next_cursor"; }
curl -sN -X POST "$BASE/v1/sweep" -d "{\"points\":$POINTS,\"resume_from\":\"$NEXT\"}" > "$TMP/points2.ndjson"
head -n 1 "$TMP/points2.ndjson" | grep -q '"start_index":2,' || { cat "$TMP/points2.ndjson" >&2; fail "points page 2: header does not start at index 2"; }
grep -q '"done":true' "$TMP/points2.ndjson" || fail "points page 2: no summary line"
cat "$TMP/points1.ndjson" "$TMP/points2.ndjson" | grep -o '"seq":[0-9]*' | sed 's/"seq"://' | sort -n > "$TMP/points-seqs.txt"
seq 0 3 | diff -u - "$TMP/points-seqs.txt" || fail "the points pages' seqs do not cover 0-3 exactly once"
grep '"seq":2,' "$TMP/points2.ndjson" | grep -q '"cached":true' || { cat "$TMP/points2.ndjson" >&2; fail "the repeated point's later copy was not a cache hit"; }
tail -n 1 "$TMP/points2.ndjson" | grep -q '"cache_hits":1,' || fail "points page 2: want cache_hits 1"

kill "$DAEMON_PID" 2>/dev/null || true
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

###############################################################################
# Part 2: multi-replica scale-out on a shared persistent cache directory.
###############################################################################

echo "== scale-out: two replicas, shared -cache-dir, disjoint shards of the paper grid"
CACHE_DIR="$TMP/outcome-cache"
GRID=576 # |apps| x |topologies| x |capacities| x |gates| x |reorders| = 6*2*6*4*2

# The full paper evaluation grammar, as served to qccdd by cmd/experiments.
PAPER=$(go run ./cmd/experiments -grammar | tr -d ' \n')
case "$PAPER" in
  '{"space":'*'}') ;;
  *) fail "unexpected -grammar output: $PAPER" ;;
esac
# Compose {"space":{...},"shard":...} by replacing the closing brace.
shard_body() { # shard_body INDEX COUNT [EXTRA]
  printf '%s,"shard":{"index":%s,"count":%s}%s}' "${PAPER%\}}" "$1" "$2" "${3:-}"
}

"$TMP/qccdd" -addr "127.0.0.1:${PORT_A}" -cache-dir "$CACHE_DIR" &
PID_A=$!
"$TMP/qccdd" -addr "127.0.0.1:${PORT_B}" -cache-dir "$CACHE_DIR" &
PID_B=$!
wait_healthy "$BASE_A"
wait_healthy "$BASE_B"

echo "== replica A: shard 0 of 2 to completion"
curl -sN -X POST "$BASE_A/v1/sweep" -d "$(shard_body 0 2)" > "$TMP/shardA.ndjson"
grep -q '"done":true' "$TMP/shardA.ndjson" || { tail -n 2 "$TMP/shardA.ndjson" >&2; fail "shard A: no summary"; }
A_ROWS=$(grep -c '"seq":' "$TMP/shardA.ndjson")
[ "$A_ROWS" -eq $((GRID / 2)) ] || fail "shard A streamed $A_ROWS rows, want $((GRID / 2))"

echo "== replica B: shard 1 of 2, SIGKILL the daemon mid-stream"
curl -sN -X POST "$BASE_B/v1/sweep" -d "$(shard_body 1 2 ',"workers":1')" > "$TMP/shardB-partial.raw" &
CURL_PID=$!
for _ in $(seq 1 200); do
  [ "$(grep -c '"seq":' "$TMP/shardB-partial.raw" 2>/dev/null || true)" -ge 3 ] && break
  sleep 0.1
done
kill -9 "$PID_B" 2>/dev/null || fail "replica B already gone"
wait "$CURL_PID" 2>/dev/null || true # curl dies with the connection; expected
wait "$PID_B" 2>/dev/null || true
PID_B=""
# Keep only complete rows: SIGKILL can truncate the final line mid-write.
grep '}$' "$TMP/shardB-partial.raw" > "$TMP/shardB-partial.ndjson" || true
B_PARTIAL=$(grep -c '"seq":' "$TMP/shardB-partial.ndjson" || true)
[ "$B_PARTIAL" -ge 3 ] || { cat "$TMP/shardB-partial.raw" >&2; fail "partial shard B: $B_PARTIAL rows before kill"; }
CURSOR=$(grep -o '"cursor":"[^"]*"' "$TMP/shardB-partial.ndjson" | tail -n 1 | sed 's/"cursor":"//;s/"$//')
[ -n "$CURSOR" ] || fail "no cursor on last complete shard B row"

echo "== relaunch replica B, resume shard 1 from cursor $CURSOR"
"$TMP/qccdd" -addr "127.0.0.1:${PORT_B}" -cache-dir "$CACHE_DIR" &
PID_B=$!
wait_healthy "$BASE_B"
curl -sf "$BASE_B/v1/cache" | grep -q '"persistent":true' || fail "relaunched replica B has no persistent tier"
curl -sN -X POST "$BASE_B/v1/sweep" \
  -d "$(shard_body 1 2 ",\"resume_from\":\"$CURSOR\"")" > "$TMP/shardB-resumed.ndjson"
grep -q '"done":true' "$TMP/shardB-resumed.ndjson" || { tail -n 2 "$TMP/shardB-resumed.ndjson" >&2; fail "resumed shard B: no summary"; }

echo "== verify: shard A + partial B + resumed B = every grid index exactly once"
{ grep -o '"seq":[0-9]*' "$TMP/shardA.ndjson"
  grep -o '"seq":[0-9]*' "$TMP/shardB-partial.ndjson"
  grep -o '"seq":[0-9]*' "$TMP/shardB-resumed.ndjson"; } \
  | sed 's/"seq"://' | sort -n > "$TMP/scaleout-got.txt"
seq 0 $((GRID - 1)) > "$TMP/scaleout-want.txt"
diff -u "$TMP/scaleout-want.txt" "$TMP/scaleout-got.txt" || fail "scale-out union has gaps or duplicates"

echo "== verify: shared tier makes the whole grid warm on replica A"
# Every point is now on the shared disk: shard 0 computed by A, shard 1 by
# B (pre-kill rows survived the SIGKILL on disk; the rest by the resumed
# process). Re-serving the FULL grammar from A must be all cache hits.
curl -sN -X POST "$BASE_A/v1/sweep" -d "$PAPER" > "$TMP/full-warm.ndjson"
grep -q '"done":true' "$TMP/full-warm.ndjson" || fail "full warm sweep: no summary"
WARM_HITS=$(grep -o '"cache_hits":[0-9]*' "$TMP/full-warm.ndjson" | tail -n 1 | sed 's/.*://')
[ "$WARM_HITS" -eq "$GRID" ] || fail "full warm sweep: $WARM_HITS cache hits, want $GRID"
A_COMPUTES=$(curl -sf "$BASE_A/v1/cache" | grep -o '"computes":[0-9]*' | sed 's/.*://')
[ "$A_COMPUTES" -eq $((GRID / 2)) ] || fail "replica A computed $A_COMPUTES points, want only its own shard ($((GRID / 2)))"

echo "daemon_smoke: PASS"
