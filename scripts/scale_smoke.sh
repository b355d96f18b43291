#!/bin/sh
# scale_smoke.sh — trimmed web-scale smoke for the -exp scale experiment.
# Runs the workload once and asserts:
#
#   1. the run completes with accepted connections and a positive
#      establishment rate,
#   2. the heap high-water mark stays under half of the links² × 4 bytes
#      that dense APLV counters on every link would occupy on their own.
#
# The default operating point (2000 nodes, 6000 links, lambda 0.08, 6000
# arrivals per cell) is the smallest where that O(links²) term (144 MB)
# dwarfs the layout-independent heap (graph, scenario, per-connection
# bookkeeping): the run peaks at 20–23 MB against a 72 MB ceiling, so a
# change that makes per-link state quadratic again fails here. At ~1k
# nodes the shared state is too close to the ceiling to tell. GOGC=50 and
# a single worker keep the peak-heap sample comparable run to run.
#
# Usage:
#   scripts/scale_smoke.sh
#   SCALE_NODES=3000 scripts/scale_smoke.sh    # larger operating point
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}
NODES=${SCALE_NODES:-2000}
CONNS=${SCALE_CONNS:-6000}
FAILS=${SCALE_FAILURES:-8}
LAMBDA=${SCALE_LAMBDA:-0.08}

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

fail() {
	echo "FAIL: $1" >&2
	exit 1
}

echo "==> building drtpsim"
"$GO" build -o "$DIR/drtpsim" ./cmd/drtpsim

echo "==> -exp scale: $NODES nodes, $CONNS conns/cell"
GOGC=50 "$DIR/drtpsim" -exp scale -workers 1 \
	-scale-nodes "$NODES" -scale-conns "$CONNS" \
	-scale-failures "$FAILS" -lambda "$LAMBDA" >"$DIR/scale.out"
sed -n 's/^SCALE_JSON //p' "$DIR/scale.out" >"$DIR/scale.json"
[ -s "$DIR/scale.json" ] || fail "no SCALE_JSON line in the output"

# field <key>: numeric field from the run's SCALE_JSON
field() {
	sed -n 's/.*"'"$1"'":\([0-9.e+-]*\).*/\1/p' "$DIR/scale.json"
}

links=$(field links)
accepted=$(field accepted)
eps=$(field establishments_per_sec)
peak=$(field peak_heap_bytes)
echo "    links=$links accepted=$accepted estab/s=$eps peak_heap_bytes=$peak"
[ -n "$accepted" ] && [ "$accepted" -gt 0 ] || fail "the run accepted no connections"
[ -n "$eps" ] || fail "the run reported no establishment rate"
awk "BEGIN { exit !($eps > 0) }" || fail "establishment rate $eps is not positive"

ceiling=$((links * links * 2))
echo "==> asserting heap high-water < $ceiling B (half the dense-APLV floor)"
[ "$peak" -lt "$ceiling" ] ||
	fail "peak heap $peak B reaches $ceiling B: per-link state is O(links²) again"

echo "PASS: scale smoke (peak $peak B of $ceiling B at $NODES nodes)"
