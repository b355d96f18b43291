#!/bin/sh
# metrics_smoke.sh — end-to-end smoke test of the observability surface:
# boots a setup coordinator and three node runtimes over
# loopback TCP with -metrics and -runtime-metrics on, establishes
# DR-connections through the coordinator, scrapes /metrics from the
# source node and the coordinator, validates the Prometheus text format
# and the presence of every instrument family this repo exposes, and
# renders the drtptrace slo report from the joined traces.
#
# Usage:
#   scripts/metrics_smoke.sh                 # artifacts in a temp dir
#   SMOKE_DIR=out scripts/metrics_smoke.sh   # keep artifacts in out/
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}
DIR=${SMOKE_DIR:-$(mktemp -d)}
BASE=${SMOKE_PORT:-7250}
mkdir -p "$DIR"

PIDS=""
cleanup() {
	for pid in $PIDS; do
		kill "$pid" 2>/dev/null || true
	done
}
trap cleanup EXIT

fail() {
	echo "FAIL: $1" >&2
	echo "--- node0 log ---" >&2
	cat "$DIR/node0.log" >&2 || true
	echo "--- coord log ---" >&2
	cat "$DIR/coord.log" >&2 || true
	exit 1
}

await() {
	log=$1
	pattern=$2
	shift 2
	i=0
	until grep -q "$pattern" "$log" 2>/dev/null; do
		i=$((i + 1))
		[ "$i" -gt 150 ] && fail "never saw '$pattern' in $log"
		[ $# -gt 0 ] && "$@"
		sleep 0.2
	done
}

echo "==> building"
"$GO" build -o "$DIR/drtpnode" ./cmd/drtpnode
"$GO" build -o "$DIR/drtptrace" ./cmd/drtptrace
"$GO" run ./cmd/topogen -kind ring -nodes 3 -json >"$DIR/topo.json"

PEERS="0=127.0.0.1:$BASE,1=127.0.0.1:$((BASE + 1)),2=127.0.0.1:$((BASE + 2))"
SERVICES="coord=127.0.0.1:$((BASE + 3))"
COMMON="-topology $DIR/topo.json -peers $PEERS -services $SERVICES -heartbeat 100ms"

for name in coord node0 node1 node2; do
	mkfifo "$DIR/in-$name"
done

echo "==> starting coordinator, 3 nodes (metrics on)"
# shellcheck disable=SC2086  # COMMON is a word list by construction
"$DIR/drtpnode" -role setup $COMMON -trace "$DIR/coord.jsonl" \
	-metrics 127.0.0.1:0 -runtime-metrics \
	<"$DIR/in-coord" >"$DIR/coord.log" 2>&1 &
PIDS="$PIDS $!"
exec 4>"$DIR/in-coord"
n=0
for fd in 5 6 7; do
	METRICS=""
	[ "$n" = 0 ] && METRICS="-metrics 127.0.0.1:0 -runtime-metrics"
	# shellcheck disable=SC2086
	"$DIR/drtpnode" -role node -node $n $COMMON -trace "$DIR/node$n.jsonl" $METRICS \
		<"$DIR/in-node$n" >"$DIR/node$n.log" 2>&1 &
	PIDS="$PIDS $!"
	eval "exec $fd>\"$DIR/in-node$n\""
	n=$((n + 1))
done

echo "==> waiting for node 0 readiness"
await "$DIR/node0.log" '^> ready$' eval 'echo ready >&5'

echo "==> establishing DR-connections via the coordinator"
echo "request 1 2" >&5
await "$DIR/node0.log" 'requested 1: primary'
echo "request 2 1" >&5
await "$DIR/node0.log" 'requested 2: primary'

node_addr=$(sed -n 's|drtpnode: metrics on http://\(.*\)/metrics|\1|p' "$DIR/node0.log" | head -1)
coord_addr=$(sed -n 's|drtpnode: metrics on http://\(.*\)/metrics|\1|p' "$DIR/coord.log" | head -1)
[ -n "$node_addr" ] || fail "node 0 never announced its metrics address"
[ -n "$coord_addr" ] || fail "coordinator never announced its metrics address"

echo "==> scraping http://$node_addr/metrics and http://$coord_addr/metrics"
curl -fsS "http://$node_addr/metrics" >"$DIR/node0-metrics.txt" || fail "node 0 scrape failed"
curl -fsS "http://$coord_addr/metrics" >"$DIR/coord-metrics.txt" || fail "coordinator scrape failed"
curl -fsS "http://$node_addr/healthz" >/dev/null || fail "node 0 /healthz failed"
curl -fsS "http://$node_addr/readyz" >/dev/null || fail "node 0 /readyz failed"

echo "==> validating exposition text format"
for f in "$DIR/node0-metrics.txt" "$DIR/coord-metrics.txt"; do
	awk '
	/^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* / { next }
	/^#/ { print "bad comment line: " $0; bad = 1; next }
	/^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.eE+-]+([eE][+-][0-9]+)?$/ { next }
	/^$/ { print "blank line in exposition"; bad = 1; next }
	{ print "bad sample line: " $0; bad = 1 }
	END { exit bad }
	' "$f" || fail "malformed exposition in $f"
done

echo "==> asserting required series"
for series in \
	drtp_events_total \
	drtp_router_establish_seconds \
	drtp_router_disruption_seconds_count \
	'drtp_router_hop_signal_seconds_count{role="primary"}' \
	drtp_runtime_goroutines \
	drtp_runtime_heap_objects_bytes \
	drtp_runtime_gc_cycles_total \
	drtp_runtime_gc_pause_seconds_count \
	drtp_telemetry_stream_written_total; do
	grep -qF "$series" "$DIR/node0-metrics.txt" || fail "node 0 exposition missing $series"
done
for series in \
	'drtp_cp_stage_seconds_count{stage="admission"}' \
	'drtp_cp_stage_seconds_count{stage="establish"}' \
	'drtp_cp_stage_seconds_count{stage="total"}'; do
	grep -qF "$series" "$DIR/coord-metrics.txt" || fail "coordinator exposition missing $series"
done
# The coordinator served two establishments; the stage pipeline must
# have observed them.
total=$(sed -n 's/drtp_cp_stage_seconds_count{stage="total"} //p' "$DIR/coord-metrics.txt")
[ "${total:-0}" -ge 2 ] || fail "coordinator observed $total total-stage samples, want >= 2"

echo "==> shutting down"
for fd in 4 5 6 7; do
	eval "(echo quit >&$fd) 2>/dev/null || true"
done
sleep 1

echo "==> rendering the SLO report from the joined traces"
"$DIR/drtptrace" slo "$DIR"/coord.jsonl "$DIR"/node*.jsonl |
	tee "$DIR/slo-report.txt"
"$DIR/drtptrace" slo -format json "$DIR"/coord.jsonl "$DIR"/node*.jsonl \
	>"$DIR/slo-report.json"
grep -q 'establishment latency' "$DIR/slo-report.txt" || fail "slo report missing establishment section"
grep -q '"objectives"' "$DIR/slo-report.json" || fail "slo json missing objectives"

echo "PASS: metrics smoke (artifacts in $DIR)"
