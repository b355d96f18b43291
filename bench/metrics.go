package main

import (
	"math"
	"sort"
)

// metricDef names one reported quantity. The two tables below are the
// single source of truth; BENCHMARK.json repeats them for the pipeline
// and a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the simulator or the control plane sees.
// Every workload reports every one of them, measured with tracing off.
// Bound is the share of the parent's median by which the metric may get
// worse before a change counts as a regression. The time bounds are as
// wide as the pipeline allows because the machine this was built on runs
// identical work up to 25 % slower for minutes at a time; the simulated
// statistics and the heap are steady and bound tightly.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"establish_per_s", "1/s", "higher", 0.25},
	{"establish_p50_us", "us", "lower", 0.25},
	{"establish_p90_us", "us", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"accepted_share", "ratio", "higher", 0.02},
	{"p_act_bk", "ratio", "higher", 0.02},
}

// setupSlackSeconds is the absolute part of the setup_s rule: set-up is
// a regression only when it is worse by more than its bound and by more
// than this many seconds (the 60-node set-up is a few milliseconds).
const setupSlackSeconds = 0.1

// perLayer lists the single-layer quantities of the traced run, by the
// repository's package names. A layer a workload never enters reads 0
// there. README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{Name: "topology.waxman_ms", Unit: "ms", Better: "lower"},
	{Name: "scenario.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "drtp.new_network_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.self_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.allocs_per_arrival", Unit: "count", Better: "lower"},
	{Name: "drtp.establish_us_p50", Unit: "us", Better: "lower"},
	{Name: "drtp.establish_us_p99", Unit: "us", Better: "lower"},
	{Name: "drtp.establish_self_share", Unit: "ratio", Better: "lower"},
	{Name: "drtp.release_us_p50", Unit: "us", Better: "lower"},
	{Name: "drtp.sweep_failures_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "drtp.sweep_share", Unit: "ratio", Better: "lower"},
	{Name: "drtp.apply_failure_us_p50", Unit: "us", Better: "lower"},
	{Name: "drtp.apply_share", Unit: "ratio", Better: "lower"},
	{Name: "routing.dlsr.route_us_p50", Unit: "us", Better: "lower"},
	{Name: "routing.dlsr.route_us_p99", Unit: "us", Better: "lower"},
	{Name: "routing.plsr.route_us_p50", Unit: "us", Better: "lower"},
	{Name: "routing.route_share", Unit: "ratio", Better: "lower"},
	{Name: "flood.route_us_p50", Unit: "us", Better: "lower"},
	{Name: "flood.cdps_per_request", Unit: "count", Better: "lower"},
	{Name: "flood.route_share", Unit: "ratio", Better: "lower"},
	{Name: "graph.dijkstra_us_p50", Unit: "us", Better: "lower"},
	{Name: "graph.dijkstra_share_est", Unit: "ratio", Better: "lower"},
	{Name: "lsdb.snapshot_us_p50", Unit: "us", Better: "lower"},
	{Name: "lsdb.conflict_counts_us_p50", Unit: "us", Better: "lower"},
	{Name: "lsdb.reserve_release_us_p50", Unit: "us", Better: "lower"},
	{Name: "lsdb.register_release_us_p50", Unit: "us", Better: "lower"},
	{Name: "lsdb.backup_ops", Unit: "count", Better: "lower"},
	{Name: "lsdb.aplv_bytes_per_conn", Unit: "B", Better: "lower"},
	{Name: "bitvec.append_cv_us_p50", Unit: "us", Better: "lower"},
	{Name: "bitvec.cv_wire_bytes_p50", Unit: "B", Better: "lower"},
	{Name: "proto.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "transport.tcp.rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.mem.rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "router.establish_us_p50", Unit: "us", Better: "lower"},
	{Name: "router.release_us_p50", Unit: "us", Better: "lower"},
	{Name: "controlplane.request_us_p99", Unit: "us", Better: "lower"},
	{Name: "controlplane.release_us_p50", Unit: "us", Better: "lower"},
	{Name: "controlplane.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "telemetry.event_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.traced_slowdown", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
}

// metricValue is one measured number with its unit, as printed.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one run's values and refuses names or units the
// tables do not declare, so a typo cannot ship a silently missing
// metric.
type metricSet struct {
	defs   []metricDef
	values map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metricValue, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.values[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: undeclared metric " + name)
}

// complete fills every metric the run did not set with 0: the layer was
// not entered on this workload.
func (m *metricSet) complete() map[string]metricValue {
	for _, d := range m.defs {
		if _, ok := m.values[d.Name]; !ok {
			m.values[d.Name] = metricValue{Value: 0, Unit: d.Unit}
		}
	}
	return m.values
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of a
// sorted slice: the smallest value with at least q of the samples at or
// below it. Empty input reads 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the usual two-middle-values median.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the
// exclusive method), which is how the pipeline measures run-to-run
// spread. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median; 0 when
// fewer than two runs or a zero median leave it undefined.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

func meanOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
