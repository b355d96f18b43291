package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// SchemeStats aggregates one routing scheme's lifecycle outcomes. The
// evaluation tallies reconcile exactly with the simulator's P_act-bk:
// EvalRecovered is its numerator and EvalAffected its denominator.
type SchemeStats struct {
	Scheme      string `json:"scheme"`
	Requests    int64  `json:"requests"`
	Established int64  `json:"established"`
	Rejected    int64  `json:"rejected"`
	BackupOK    int64  `json:"backup_ok"`
	BackupFail  int64  `json:"backup_fail"`

	EvalRecovered int64            `json:"eval_recovered"`
	EvalDenied    int64            `json:"eval_denied"`
	EvalAffected  int64            `json:"eval_affected"`
	DeniedReasons map[string]int64 `json:"denied_reasons,omitempty"`

	// Switched/Dropped count destructive recoveries (live channel
	// switches and connections lost to a failure).
	Switched int64 `json:"switched"`
	Dropped  int64 `json:"dropped"`

	// Retries counts signalling retransmissions and DedupHits the
	// duplicate packets absorbed by the idempotent dedup layer, across
	// this scheme's connection spans (chaos/lossy runs only).
	Retries   int64 `json:"retries,omitempty"`
	DedupHits int64 `json:"dedup_hits,omitempty"`

	// FaultTolerance is EvalRecovered / EvalAffected (the paper's
	// P_act-bk); NaN-free: 0 when nothing was affected.
	FaultTolerance float64 `json:"fault_tolerance"`
}

// DisruptionBucket is one histogram bucket of service-disruption times;
// Le is the inclusive upper bound (math.Inf(1) for the overflow bucket).
type DisruptionBucket struct {
	Le    float64 `json:"le"`
	Count int     `json:"count"`
}

// MarshalJSON encodes the overflow bound as the string "+Inf" — infinite
// floats are not representable as JSON numbers.
func (b DisruptionBucket) MarshalJSON() ([]byte, error) {
	le := `"+Inf"`
	if !math.IsInf(b.Le, 1) {
		le = strconv.FormatFloat(b.Le, 'g', -1, 64)
	}
	return []byte(fmt.Sprintf(`{"le":%s,"count":%d}`, le, b.Count)), nil
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (b *DisruptionBucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		Le    json.RawMessage `json:"le"`
		Count int             `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	if string(raw.Le) == `"+Inf"` {
		b.Le = math.Inf(1)
		return nil
	}
	return json.Unmarshal(raw.Le, &b.Le)
}

// DisruptionStats summarizes service-disruption times — the interval
// from a link-failure event to each affected connection's backup
// activation — across all recovery spans.
type DisruptionStats struct {
	Summary
	Buckets []DisruptionBucket `json:"buckets,omitempty"`
}

// LinkStat ranks one link by how critical its failure is: how many
// connections could not be recovered when it failed (evaluation denials
// plus destructive drops), tie-broken by total affected connections.
type LinkStat struct {
	Link          int   `json:"link"`
	Failures      int   `json:"failures"`
	EvalRecovered int64 `json:"eval_recovered"`
	EvalDenied    int64 `json:"eval_denied"`
	Switched      int64 `json:"switched"`
	Dropped       int64 `json:"dropped"`
}

// Criticality is the link's unrecovered-connection count.
func (l *LinkStat) Criticality() int64 { return l.EvalDenied + l.Dropped }

// OccupancyStat aggregates one link's occupancy samples under one
// scheme: average reserved primary/spare bandwidth units and the peak
// spare pool and backup-multiplexing degree observed.
type OccupancyStat struct {
	Scheme   string  `json:"scheme"`
	Link     int     `json:"link"`
	Samples  int     `json:"samples"`
	AvgPrime float64 `json:"avg_prime"`
	AvgSpare float64 `json:"avg_spare"`
	MaxSpare int     `json:"max_spare"`
	MaxMux   int     `json:"max_mux"`
}

// Report is the paper-aligned analysis of a reconstructed Trace.
type Report struct {
	Events     int              `json:"events"`
	Conns      int              `json:"conns"`
	Failures   int              `json:"failures"`
	Schemes    []*SchemeStats   `json:"schemes"`
	Disruption DisruptionStats  `json:"disruption"`
	Links      []*LinkStat      `json:"links,omitempty"`
	Occupancy  []*OccupancyStat `json:"occupancy,omitempty"`
	// FaultsInjected counts chaos-layer fault events by action (drop,
	// dup, reorder, delay, crash, partition, edge-fail, edge-repair);
	// empty for fault-free traces.
	FaultsInjected map[string]int64 `json:"faults_injected,omitempty"`
	// Dropped counts events the trace writer dropped (Trace.Dropped);
	// when nonzero every figure above is from an incomplete trace.
	Dropped int64 `json:"dropped_events,omitempty"`
}

// disruptionBounds are the histogram bucket upper bounds used by
// BuildReport, in the trace's time unit (simulated minutes for drtpsim
// traces, seconds for drtpnode traces).
var disruptionBounds = []float64{0.001, 0.01, 0.05, 0.1, 0.5, 1, 5}

// BuildReport derives the paper-aligned report from a reconstructed
// trace: per-scheme fault tolerance, the service-disruption histogram,
// link criticality ranking, and spare-occupancy aggregates.
func BuildReport(tr *Trace) *Report {
	rep := &Report{Events: tr.Total, Conns: len(tr.Spans), Failures: len(tr.Recoveries), Dropped: tr.Dropped}

	schemes := map[string]*SchemeStats{}
	links := map[int]*LinkStat{}
	scheme := func(name string) *SchemeStats {
		s := schemes[name]
		if s == nil {
			s = &SchemeStats{Scheme: name, DeniedReasons: map[string]int64{}}
			schemes[name] = s
		}
		return s
	}
	link := func(id int) *LinkStat {
		l := links[id]
		if l == nil {
			l = &LinkStat{Link: id}
			links[id] = l
		}
		return l
	}

	for _, sp := range tr.Spans {
		st := scheme(sp.Scheme)
		for _, e := range sp.Events {
			switch e.Kind {
			case EvConnRequest:
				st.Requests += int64(e.N)
			case EvConnEstablish:
				st.Established += int64(e.N)
			case EvConnReject:
				st.Rejected += int64(e.N)
			case EvBackupRegister:
				if e.Reason == "" {
					st.BackupOK += int64(e.N)
				} else {
					st.BackupFail += int64(e.N)
				}
			case EvBackupActivate:
				if destructiveOutcome(e) {
					st.Switched += int64(e.N)
				} else {
					st.EvalRecovered += int64(e.N)
					if e.Link >= 0 {
						link(e.Link).EvalRecovered += int64(e.N)
					}
				}
			case EvActivationDenied:
				if destructiveOutcome(e) {
					st.Dropped += int64(e.N)
				} else {
					st.EvalDenied += int64(e.N)
					st.DeniedReasons[e.Reason] += int64(e.N)
					if e.Link >= 0 {
						link(e.Link).EvalDenied += int64(e.N)
					}
				}
			case EvRetry:
				st.Retries += int64(e.N)
			case EvDedupHit:
				st.DedupHits += int64(e.N)
			}
		}
	}

	for _, e := range tr.Faults {
		if rep.FaultsInjected == nil {
			rep.FaultsInjected = map[string]int64{}
		}
		action := e.Reason
		if action == "" {
			action = "-"
		}
		rep.FaultsInjected[action] += int64(e.N)
	}

	var disruptions []float64
	for _, r := range tr.Recoveries {
		if r.Link >= 0 {
			link(r.Link).Failures++
		}
		for _, o := range r.Outcomes {
			if o.Recovered {
				disruptions = append(disruptions, o.Disruption)
			}
			if r.Link >= 0 {
				if o.Recovered {
					link(r.Link).Switched++
				} else {
					link(r.Link).Dropped++
				}
			}
		}
	}

	for _, s := range schemes {
		s.EvalAffected = s.EvalRecovered + s.EvalDenied
		if s.EvalAffected > 0 {
			s.FaultTolerance = float64(s.EvalRecovered) / float64(s.EvalAffected)
		}
		if len(s.DeniedReasons) == 0 {
			s.DeniedReasons = nil
		}
		rep.Schemes = append(rep.Schemes, s)
	}
	sort.Slice(rep.Schemes, func(i, j int) bool {
		return rep.Schemes[i].Scheme < rep.Schemes[j].Scheme
	})

	rep.Disruption.Summary = Summarize(disruptions)
	if len(disruptions) > 0 {
		rep.Disruption.Buckets = make([]DisruptionBucket, len(disruptionBounds)+1)
		for i, b := range disruptionBounds {
			rep.Disruption.Buckets[i].Le = b
		}
		rep.Disruption.Buckets[len(disruptionBounds)].Le = math.Inf(1)
		for _, v := range disruptions {
			i := sort.SearchFloat64s(disruptionBounds, v) // bucket with Le >= v (inclusive)
			rep.Disruption.Buckets[i].Count++
		}
	}

	for _, l := range links {
		rep.Links = append(rep.Links, l)
	}
	sort.Slice(rep.Links, func(i, j int) bool {
		a, b := rep.Links[i], rep.Links[j]
		if a.Criticality() != b.Criticality() {
			return a.Criticality() > b.Criticality()
		}
		if ra, rb := a.EvalRecovered+a.Switched, b.EvalRecovered+b.Switched; ra != rb {
			return ra > rb
		}
		return a.Link < b.Link
	})

	rep.Occupancy = summarizeOccupancy(tr.LinkStates)
	return rep
}

func summarizeOccupancy(states []Event) []*OccupancyStat {
	type key struct {
		scheme string
		link   int
	}
	acc := map[key]*OccupancyStat{}
	sums := map[key]*[2]int64{}
	for _, e := range states {
		k := key{e.Scheme, e.Link}
		o := acc[k]
		if o == nil {
			o = &OccupancyStat{Scheme: e.Scheme, Link: e.Link}
			acc[k] = o
			sums[k] = &[2]int64{}
		}
		o.Samples++
		sums[k][0] += int64(e.Prime)
		sums[k][1] += int64(e.Spare)
		if e.Spare > o.MaxSpare {
			o.MaxSpare = e.Spare
		}
		if e.Mux > o.MaxMux {
			o.MaxMux = e.Mux
		}
	}
	out := make([]*OccupancyStat, 0, len(acc))
	for k, o := range acc {
		o.AvgPrime = float64(sums[k][0]) / float64(o.Samples)
		o.AvgSpare = float64(sums[k][1]) / float64(o.Samples)
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Scheme != out[j].Scheme {
			return out[i].Scheme < out[j].Scheme
		}
		if out[i].MaxMux != out[j].MaxMux {
			return out[i].MaxMux > out[j].MaxMux
		}
		return out[i].Link < out[j].Link
	})
	return out
}
