#!/bin/sh
# controlplane_smoke.sh — end-to-end smoke test of the two-role control
# plane: boots a setup coordinator and four node runtimes as separate
# drtpnode processes over loopback TCP,
# establishes a DR-connection through the coordinator, crashes the
# primary-route node, waits for backup activation, and asserts the
# recovery from the joined drtptrace report.
#
# Usage:
#   scripts/controlplane_smoke.sh                 # artifacts in a temp dir
#   SMOKE_DIR=out scripts/controlplane_smoke.sh   # keep artifacts in out/
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}
DIR=${SMOKE_DIR:-$(mktemp -d)}
BASE=${SMOKE_PORT:-7150}
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

# Poll for a pattern in a file, driving the console each round.
# usage: await <logfile> <pattern> [console-fd-command...]
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
"$GO" run ./cmd/topogen -kind ring -nodes 4 -json >"$DIR/topo.json"

PEERS="0=127.0.0.1:$BASE,1=127.0.0.1:$((BASE + 1)),2=127.0.0.1:$((BASE + 2)),3=127.0.0.1:$((BASE + 3))"
SERVICES="coord=127.0.0.1:$((BASE + 4))"
COMMON="-topology $DIR/topo.json -peers $PEERS -services $SERVICES -heartbeat 100ms"

# Each process keeps its console open on a FIFO so it serves until we
# say quit; fds 4-8 hold the write ends.
for name in coord node0 node1 node2 node3; do
	mkfifo "$DIR/in-$name"
done

echo "==> starting coordinator, 4 nodes"
# shellcheck disable=SC2086  # COMMON is a word list by construction
"$DIR/drtpnode" -role setup -quotas "default=100:1000" $COMMON -trace "$DIR/coord.jsonl" \
	<"$DIR/in-coord" >"$DIR/coord.log" 2>&1 &
PIDS="$PIDS $!"
exec 4>"$DIR/in-coord"
n=0
for fd in 5 6 7 8; do
	# shellcheck disable=SC2086
	"$DIR/drtpnode" -role node -node $n $COMMON -trace "$DIR/node$n.jsonl" \
		<"$DIR/in-node$n" >"$DIR/node$n.log" 2>&1 &
	eval "NODE${n}_PID=\$!"
	PIDS="$PIDS $!"
	eval "exec $fd>\"$DIR/in-node$n\""
	n=$((n + 1))
done

echo "==> waiting for node 0 readiness (registered + link-state synced)"
await "$DIR/node0.log" '^> ready$' eval 'echo ready >&5'

echo "==> establishing DR-connection 1: 0 -> 2 via coordinator"
echo "request 1 2" >&5
await "$DIR/node0.log" 'requested 1: primary'
grep 'requested 1' "$DIR/node0.log"

echo "==> crashing node 1 (primary route transit)"
# The ring's two 0->2 routes are 0-1-2 and 0-3-2; node 1 carries one of
# them. Kill whichever transit the primary actually used.
PRIMARY_MID=$(sed -n 's/.*requested 1: primary \[0 \([0-9]*\) 2\].*/\1/p' "$DIR/node0.log" | head -1)
[ -n "$PRIMARY_MID" ] || fail "could not parse primary transit node"
eval "kill -9 \$NODE${PRIMARY_MID}_PID"

echo "==> waiting for failure detection and backup activation"
# Trace files are buffered until process exit, so watch the live console
# instead; the coordinator's heartbeat-miss is asserted post-shutdown.
await "$DIR/node0.log" 'switched=true' eval 'echo info 1 >&5'
grep 'conn 1:' "$DIR/node0.log" | tail -1

echo "==> establishing a second connection on the degraded network"
echo "request 2 2" >&5
await "$DIR/node0.log" 'requested 2: primary'

echo "==> shutting down"
# The crashed node's FIFO has no reader, so write each quit from a
# subshell: a SIGPIPE there cannot take the script down.
for fd in 4 5 6 7 8; do
	eval "(echo quit >&$fd) 2>/dev/null || true"
done
sleep 1

echo "==> asserting recovery via drtptrace"
# Join the surviving processes' traces (the crashed node's file may be
# mid-write) and require the connection timeline to show a backup
# activation after the failure.
TRACES="$DIR/coord.jsonl"
for t in "$DIR"/node*.jsonl; do
	[ "$t" = "$DIR/node$PRIMARY_MID.jsonl" ] && continue
	TRACES="$TRACES $t"
done
# shellcheck disable=SC2086
"$DIR/drtptrace" -conn 1 $TRACES | tee "$DIR/conn1-timeline.txt"
grep -q 'backup-activate' "$DIR/conn1-timeline.txt" || fail "no backup-activate in conn 1 timeline"
# shellcheck disable=SC2086
"$DIR/drtptrace" $TRACES | tee "$DIR/report.txt"
grep -q 'node-join' "$DIR/coord.jsonl" || fail "no node-join events in coordinator trace"
grep -q '"heartbeat-miss"' "$DIR/coord.jsonl" || fail "no heartbeat-miss in coordinator trace"

echo "PASS: control-plane smoke (artifacts in $DIR)"
