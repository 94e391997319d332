#!/usr/bin/env bash
# e2e_smoke.sh — build qagviewd, start it against the MovieLens sample, and
# drive the session / solution / diff endpoints end to end, asserting 200s
# and a non-empty solution. CI runs this as the e2e job; locally:
#
#     ./scripts/e2e_smoke.sh [port]
set -euo pipefail

PORT="${1:-8093}"
BASE="http://127.0.0.1:${PORT}"
SQL='SELECT hdec, agegrp, gender, avg(rating) AS val FROM RatingTable GROUP BY hdec, agegrp, gender HAVING count(*) > 50 ORDER BY val DESC'

cd "$(dirname "$0")/.."

echo "== building qagviewd"
go build -o /tmp/qagviewd ./cmd/qagviewd

DEBUG_PORT=$((PORT + 1))
DEBUG_BASE="http://127.0.0.1:${DEBUG_PORT}"

echo "== starting qagviewd on :${PORT} (MovieLens sample, 20k ratings, tracing on, debug on :${DEBUG_PORT})"
/tmp/qagviewd -addr "127.0.0.1:${PORT}" -sample movielens -sample-ratings 20000 \
  -trace -trace-ring 64 -debug-addr "127.0.0.1:${DEBUG_PORT}" &
SERVER_PID=$!
trap 'kill "${SERVER_PID}" 2>/dev/null || true' EXIT

fail() { echo "e2e: FAIL — $*" >&2; exit 1; }

# curl wrapper: ck <expected-code> <outfile> <curl args...>
ck() {
  local want="$1" out="$2"; shift 2
  local code
  code=$(curl -sS -o "$out" -w '%{http_code}' "$@") || fail "curl $* did not complete"
  [ "$code" = "$want" ] || { cat "$out" >&2; fail "$* returned HTTP $code, want $want"; }
}

echo "== waiting for /healthz"
for i in $(seq 1 100); do
  if curl -fsS "${BASE}/healthz" >/dev/null 2>&1; then break; fi
  [ "$i" = 100 ] && fail "server did not become healthy"
  sleep 0.2
done

OUT=$(mktemp -d)

echo "== POST /v1/queries"
ck 200 "$OUT/query.json" -X POST "${BASE}/v1/queries" \
  -H 'Content-Type: application/json' \
  -d "{\"sql\": \"${SQL}\", \"limit\": 3}"
grep -q '"n"' "$OUT/query.json" || fail "query response has no result count"

echo "== POST /v1/sessions"
ck 201 "$OUT/session.json" -X POST "${BASE}/v1/sessions" \
  -H 'Content-Type: application/json' \
  -d "{\"sql\": \"${SQL}\", \"l\": 8, \"kmin\": 1, \"kmax\": 6, \"ds\": [1, 2]}"
SESSION=$(sed -n 's/.*"session": "\([^"]*\)".*/\1/p' "$OUT/session.json" | head -1)
[ -n "$SESSION" ] || { cat "$OUT/session.json" >&2; fail "no session id in response"; }
echo "   session: ${SESSION}"

echo "== GET solution (k=3, d=1)"
ck 200 "$OUT/solution.json" "${BASE}/v1/sessions/${SESSION}/solution?k=3&d=1"
grep -q '"pattern"' "$OUT/solution.json" || { cat "$OUT/solution.json" >&2; fail "solution has no clusters"; }
grep -q '"size": 0' "$OUT/solution.json" && fail "solution contains an empty cluster"

echo "== GET diff (k=2 -> k=3)"
ck 200 "$OUT/diff.json" "${BASE}/v1/sessions/${SESSION}/diff?k1=2&d1=1&k2=3&d2=1"
grep -q '"overlap"' "$OUT/diff.json" || { cat "$OUT/diff.json" >&2; fail "diff has no overlap matrix"; }

echo "== live tables: session refresh after mid-session appends"
SQL2='SELECT g, h, avg(v) AS val FROM live GROUP BY g, h ORDER BY val DESC'
ck 201 "$OUT/live_table.json" -X POST "${BASE}/v1/tables" \
  -H 'Content-Type: application/json' \
  -d '{"name": "live", "attrs": ["g", "h", "v"], "kinds": {"v": "float"}, "rows": [["a","x","9"],["a","y","8"],["b","x","7"],["b","y","6"],["c","x","5"],["c","y","4"]]}'
ck 201 "$OUT/live_session.json" -X POST "${BASE}/v1/sessions" \
  -H 'Content-Type: application/json' \
  -d "{\"sql\": \"${SQL2}\", \"l\": 4, \"kmin\": 1, \"kmax\": 3, \"ds\": [1]}"
LIVESESS=$(sed -n 's/.*"session": "\([^"]*\)".*/\1/p' "$OUT/live_session.json" | head -1)
[ -n "$LIVESESS" ] || { cat "$OUT/live_session.json" >&2; fail "no live session id"; }
ck 200 "$OUT/live_sol1.json" "${BASE}/v1/sessions/${LIVESESS}/solution?k=2&d=1"
grep -q '"data_version": 1' "$OUT/live_sol1.json" || { cat "$OUT/live_sol1.json" >&2; fail "fresh live solution should be data_version 1"; }
ck 200 "$OUT/append.json" -X POST "${BASE}/v1/tables/live/rows" \
  -H 'Content-Type: application/json' \
  -d '{"rows": [["c","y","50"], ["d","x","1"]]}'
grep -q '"data_version": 2' "$OUT/append.json" || { cat "$OUT/append.json" >&2; fail "append should bump the table to data_version 2"; }
ck 200 "$OUT/live_sol2.json" "${BASE}/v1/sessions/${LIVESESS}/solution?k=2&d=1"
grep -q '"data_version": 2' "$OUT/live_sol2.json" || { cat "$OUT/live_sol2.json" >&2; fail "refreshed solution should carry data_version 2"; }
grep -q '"pattern"' "$OUT/live_sol2.json" || { cat "$OUT/live_sol2.json" >&2; fail "refreshed solution has no clusters"; }

echo "== multi-table join over the sample star schema"
JSQL='SELECT agegrp, gender, avg(rating) AS val FROM ratings JOIN users ON ratings.user_id = users.user_id GROUP BY agegrp, gender ORDER BY val DESC'
ck 200 "$OUT/join_star.json" -X POST "${BASE}/v1/queries" \
  -H 'Content-Type: application/json' \
  -d "{\"sql\": \"${JSQL}\", \"limit\": 3}"
tr -d ' \n' < "$OUT/join_star.json" | grep -q '"tables":\["ratings","users"\]' || { cat "$OUT/join_star.json" >&2; fail "star join response does not list both FROM tables"; }

echo "== join over live tables: append to the build side changes the result"
JSQL2='SELECT region, live.g, avg(v) AS val FROM live JOIN region ON live.g = region.g GROUP BY region, live.g ORDER BY val DESC'
ck 201 "$OUT/join_dim.json" -X POST "${BASE}/v1/tables" \
  -H 'Content-Type: application/json' \
  -d '{"name": "region", "attrs": ["g", "region"], "rows": [["a","east"],["b","east"],["c","west"]]}'
ck 200 "$OUT/join_q1.json" -X POST "${BASE}/v1/queries" \
  -H 'Content-Type: application/json' -d "{\"sql\": \"${JSQL2}\", \"limit\": 100}"
grep -q '"n": 3' "$OUT/join_q1.json" || { cat "$OUT/join_q1.json" >&2; fail "live join should cover 3 matched groups"; }
# Rebind group d (unmatched so far) by appending to the dimension: the next
# read of the same SQL must see the new group — the join result changed.
ck 200 "$OUT/join_append.json" -X POST "${BASE}/v1/tables/region/rows" \
  -H 'Content-Type: application/json' -d '{"rows": [["d","north"]]}'
grep -q '"data_version": 2' "$OUT/join_append.json" || { cat "$OUT/join_append.json" >&2; fail "dimension append should bump its data_version"; }
ck 200 "$OUT/join_q2.json" -X POST "${BASE}/v1/queries" \
  -H 'Content-Type: application/json' -d "{\"sql\": \"${JSQL2}\", \"limit\": 100}"
grep -q '"n": 4' "$OUT/join_q2.json" || { cat "$OUT/join_q2.json" >&2; fail "live join should see the appended dimension row"; }
grep -q 'north' "$OUT/join_q2.json" || { cat "$OUT/join_q2.json" >&2; fail "appended region missing from join result"; }

echo "== join session tracks every FROM table's generation"
ck 201 "$OUT/join_sess.json" -X POST "${BASE}/v1/sessions" \
  -H 'Content-Type: application/json' \
  -d "{\"sql\": \"${JSQL2}\", \"l\": 4, \"kmin\": 1, \"kmax\": 3, \"ds\": [1]}"
JOINSESS=$(sed -n 's/.*"session": "\([^"]*\)".*/\1/p' "$OUT/join_sess.json" | head -1)
[ -n "$JOINSESS" ] || { cat "$OUT/join_sess.json" >&2; fail "no join session id"; }
# live is at generation 2 (appended earlier) and region at 2: summed version 4.
grep -q '"data_version": 4' "$OUT/join_sess.json" || { cat "$OUT/join_sess.json" >&2; fail "join session data_version should sum both tables' generations"; }
ck 200 "$OUT/join_sol1.json" "${BASE}/v1/sessions/${JOINSESS}/solution?k=2&d=1"
ck 200 "$OUT/join_append2.json" -X POST "${BASE}/v1/tables/region/rows" \
  -H 'Content-Type: application/json' -d '{"rows": [["e","south"]]}'
ck 200 "$OUT/join_sol2.json" "${BASE}/v1/sessions/${JOINSESS}/solution?k=2&d=1"
grep -q '"data_version": 5' "$OUT/join_sol2.json" || { cat "$OUT/join_sol2.json" >&2; fail "join session should refresh when a dimension table changes"; }
ck 200 "$OUT/join_del.json" -X DELETE "${BASE}/v1/sessions/${JOINSESS}"

echo "== DELETE /v1/sessions/{id} evicts"
ck 200 "$OUT/del.json" -X DELETE "${BASE}/v1/sessions/${LIVESESS}"
ck 404 "$OUT/del404.json" "${BASE}/v1/sessions/${LIVESESS}"
ck 404 "$OUT/del404b.json" -X DELETE "${BASE}/v1/sessions/${LIVESESS}"

echo "== error paths stay errors"
ck 404 "$OUT/err404.json" "${BASE}/v1/sessions/s-nope/solution?k=1&d=1"
ck 400 "$OUT/err400.json" "${BASE}/v1/sessions/${SESSION}/solution?k=abc&d=1"

echo "== GET /metrics"
ck 200 "$OUT/metrics.json" "${BASE}/metrics"
grep -q '"live": 1' "$OUT/metrics.json" || { cat "$OUT/metrics.json" >&2; fail "metrics do not report the live session"; }

echo "== every response carries X-Request-Id"
HDRS=$(curl -sS -D - -o /dev/null "${BASE}/healthz")
echo "$HDRS" | grep -qi '^x-request-id:' || { echo "$HDRS" >&2; fail "no X-Request-Id header on /healthz"; }
ck 400 "$OUT/rid_err.json" -X POST "${BASE}/v1/queries" \
  -H 'Content-Type: application/json' -d '{"sql": ""}'
grep -q '"request_id"' "$OUT/rid_err.json" || { cat "$OUT/rid_err.json" >&2; fail "error body carries no request_id"; }

echo "== traced join query returns an inline span tree (server -> engine -> merge)"
ck 200 "$OUT/traced.json" -X POST "${BASE}/v1/queries?trace=1" \
  -H 'Content-Type: application/json' -d "{\"sql\": \"${JSQL}\", \"limit\": 3}"
for span in engine.execute join.build join.probe merge; do
  grep -q "\"${span}\"" "$OUT/traced.json" || { cat "$OUT/traced.json" >&2; fail "inline trace missing span ${span}"; }
done

echo "== profiled query returns per-operator rows and wall time"
ck 200 "$OUT/profiled.json" -X POST "${BASE}/v1/queries" \
  -H 'Content-Type: application/json' -d "{\"sql\": \"${SQL}\", \"profile\": true, \"limit\": 3}"
grep -q '"profile"' "$OUT/profiled.json" || { cat "$OUT/profiled.json" >&2; fail "no profile in profiled query"; }
grep -q 'operator' "$OUT/profiled.json" || { cat "$OUT/profiled.json" >&2; fail "no rendered profile_text table"; }

echo "== GET /debug/traces lists the ring; one trace is retrievable by id"
ck 200 "$OUT/traces.json" "${BASE}/debug/traces"
grep -q '"enabled": true' "$OUT/traces.json" || { cat "$OUT/traces.json" >&2; fail "trace ring reports disabled"; }
TRACE_ID=$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$OUT/traces.json" | head -1)
[ -n "$TRACE_ID" ] || { cat "$OUT/traces.json" >&2; fail "no trace ids in ring"; }
ck 200 "$OUT/trace_one.json" "${BASE}/debug/traces/${TRACE_ID}"
grep -q '"root"' "$OUT/trace_one.json" || { cat "$OUT/trace_one.json" >&2; fail "trace by id has no span tree"; }
ck 404 "$OUT/trace_404.json" "${BASE}/debug/traces/nope"

echo "== debug listener serves pprof and the trace ring on its own port"
ck 200 "$OUT/debug_traces.json" "${DEBUG_BASE}/debug/traces"
ck 200 "$OUT/debug_pprof.txt" "${DEBUG_BASE}/debug/pprof/cmdline"

echo "== GET /metrics?format=prometheus parses and carries the core families"
ck 200 "$OUT/metrics.prom" "${BASE}/metrics?format=prometheus"
go run ./cmd/promlint \
  -require qagviewd_requests_total,qagviewd_request_latency_ms,qagviewd_uptime_seconds,qagviewd_goroutines,qagviewd_heap_alloc_bytes,qagviewd_trace_ring_occupancy,qagviewd_traces_total \
  < "$OUT/metrics.prom" || fail "prometheus exposition failed promlint"

echo "== durability: acked writes survive kill -9"
kill "${SERVER_PID}" 2>/dev/null || true
wait "${SERVER_PID}" 2>/dev/null || true
WALDIR=$(mktemp -d)

start_durable() {
  /tmp/qagviewd -addr "127.0.0.1:${PORT}" -wal "${WALDIR}" &
  SERVER_PID=$!
  for i in $(seq 1 100); do
    if curl -fsS "${BASE}/healthz" >/dev/null 2>&1; then return 0; fi
    [ "$i" = 100 ] && fail "durable server did not become healthy"
    sleep 0.2
  done
}

start_durable
DSQL='SELECT g, avg(v) AS val FROM durable GROUP BY g ORDER BY val DESC'
ck 201 "$OUT/dur_table.json" -X POST "${BASE}/v1/tables" \
  -H 'Content-Type: application/json' \
  -d '{"name": "durable", "attrs": ["g", "v"], "kinds": {"v": "float"}, "rows": [["a","1"],["b","2"],["c","3"]]}'
ck 200 "$OUT/dur_append.json" -X POST "${BASE}/v1/tables/durable/rows" \
  -H 'Content-Type: application/json' \
  -d '{"rows": [["a","10"], ["d","4"]]}'
grep -q '"data_version": 2' "$OUT/dur_append.json" || { cat "$OUT/dur_append.json" >&2; fail "durable append should ack data_version 2"; }
ck 200 "$OUT/dur_q1.json" -X POST "${BASE}/v1/queries" \
  -H 'Content-Type: application/json' -d "{\"sql\": \"${DSQL}\"}"

# open_durable_session <outfile prefix>: opens the session over the durable
# table, waits for its store, and reads one solution into <prefix>_sol.json.
DSESS_BODY="{\"sql\": \"${DSQL}\", \"l\": 4, \"kmin\": 1, \"kmax\": 3, \"ds\": [1]}"
open_durable_session() {
  ck 201 "$OUT/$1_sess.json" -X POST "${BASE}/v1/sessions" \
    -H 'Content-Type: application/json' -d "${DSESS_BODY}"
  DSESS=$(sed -n 's/.*"session": "\([^"]*\)".*/\1/p' "$OUT/$1_sess.json" | head -1)
  [ -n "$DSESS" ] || { cat "$OUT/$1_sess.json" >&2; fail "no durable session id"; }
  for i in $(seq 1 100); do
    ck 200 "$OUT/$1_info.json" "${BASE}/v1/sessions/${DSESS}"
    grep -q '"store_ready": true' "$OUT/$1_info.json" && break
    [ "$i" = 100 ] && { cat "$OUT/$1_info.json" >&2; fail "durable session store never became ready"; }
    sleep 0.1
  done
  ck 200 "$OUT/$1_sol.json" "${BASE}/v1/sessions/${DSESS}/solution?k=2&d=1&expand=1"
}

echo "   session over the durable table: its store snapshot lands in ${WALDIR}/stores"
open_durable_session dur1
# The store is served before its snapshot is fsynced; wait for the save.
for i in $(seq 1 100); do
  ck 200 "$OUT/dur_metrics.prom" "${BASE}/metrics?format=prometheus"
  grep -q 'qagviewd_session_events_total{event="snapshot_saves"} 1' "$OUT/dur_metrics.prom" && break
  [ "$i" = 100 ] && fail "store snapshot was never saved"
  sleep 0.1
done
ls "${WALDIR}"/stores/*.store >/dev/null || fail "no store snapshot in ${WALDIR}/stores"

echo "   kill -9 then restart against ${WALDIR}"
kill -9 "${SERVER_PID}"
wait "${SERVER_PID}" 2>/dev/null || true
start_durable
ck 200 "$OUT/dur_tables.json" "${BASE}/v1/tables"
grep -q '"durable": 2' "$OUT/dur_tables.json" || { cat "$OUT/dur_tables.json" >&2; fail "recovered table should report data_version 2"; }
ck 200 "$OUT/dur_q2.json" -X POST "${BASE}/v1/queries" \
  -H 'Content-Type: application/json' -d "{\"sql\": \"${DSQL}\"}"
cmp -s "$OUT/dur_q1.json" "$OUT/dur_q2.json" || {
  diff "$OUT/dur_q1.json" "$OUT/dur_q2.json" >&2 || true
  fail "recovered query result differs from the pre-crash result"
}
open_durable_session dur2
grep -q '"from_snapshot": true' "$OUT/dur2_info.json" || { cat "$OUT/dur2_info.json" >&2; fail "re-opened session swept instead of decoding its store snapshot"; }
cmp -s "$OUT/dur1_sol.json" "$OUT/dur2_sol.json" || {
  diff "$OUT/dur1_sol.json" "$OUT/dur2_sol.json" >&2 || true
  fail "solution from the decoded store differs from the pre-crash solution"
}

echo "e2e: OK"
