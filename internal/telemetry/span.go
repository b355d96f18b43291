package telemetry

import (
	"sort"
)

// ConnSpan is one DR-connection's reconstructed lifecycle: the phase
// timestamps of request → primary setup → backup registration → active →
// (switch | teardown | drop), joined across every node that emitted
// events for the connection's trace ID. Timestamps are -1 when the phase
// never occurred.
type ConnSpan struct {
	Trace  int64  `json:"trace"`
	Conn   int64  `json:"conn"`
	Scheme string `json:"scheme"`
	// Outcome summarizes the span: "active", "released", "switched",
	// "dropped", "rejected", or "pending" (span never completed).
	Outcome string `json:"outcome"`

	RequestT  float64 `json:"request_t"`
	SetupT    float64 `json:"setup_t"`
	RegisterT float64 `json:"register_t"`
	ActiveT   float64 `json:"active_t"`
	RejectT   float64 `json:"reject_t"`
	SwitchT   float64 `json:"switch_t"`
	DropT     float64 `json:"drop_t"`
	TeardownT float64 `json:"teardown_t"`

	// Backups counts successful backup registrations; Recovered/Denied
	// tally the evaluation-sweep outcomes that referenced this span.
	Backups   int   `json:"backups"`
	Recovered int64 `json:"recovered"`
	Denied    int64 `json:"denied"`

	// Nodes lists the distinct router nodes that emitted events for this
	// span — a multi-node deployment yields more than one entry here.
	Nodes []int `json:"nodes,omitempty"`

	// Events is the span's raw event sequence in timeline order.
	Events []Event `json:"-"`
}

// RecoveryOutcome is one affected connection's fate after a failure.
type RecoveryOutcome struct {
	Trace     int64   `json:"trace"`
	Conn      int64   `json:"conn"`
	Scheme    string  `json:"scheme"`
	Recovered bool    `json:"recovered"`
	Reason    string  `json:"reason,omitempty"`
	T         float64 `json:"t"`
	// Disruption is the service-disruption time: the interval from the
	// link-failure event to this connection's activation (or denial).
	Disruption float64 `json:"disruption"`
}

// RecoverySpan links one EvLinkFail to the per-connection outcomes it
// forced (destructive switches/re-routes and drops; evaluation-sweep
// probes accumulate on the ConnSpans instead).
type RecoverySpan struct {
	Link     int               `json:"link"`
	Node     int               `json:"node"`
	FailT    float64           `json:"fail_t"`
	Outcomes []RecoveryOutcome `json:"outcomes,omitempty"`
}

// Trace is a reconstructed set of spans built from one or more event
// streams (BuildTrace). Multi-file inputs merge on the event timestamps.
type Trace struct {
	Spans      []*ConnSpan     `json:"spans"`
	Recoveries []*RecoverySpan `json:"recoveries"`
	// LinkStates keeps the raw occupancy samples for occupancy reports.
	LinkStates []Event `json:"-"`
	// Faults keeps the raw chaos-layer fault events (fault-injected) for
	// the report's per-action tally; they carry no connection context.
	Faults []Event `json:"-"`
	// Total is the number of events consumed.
	Total int `json:"total_events"`
	// Dropped sums the trace-dropped trailers of every input: events the
	// writer lost, so the trace is incomplete when it is nonzero.
	Dropped int64 `json:"dropped_events,omitempty"`
}

// spanKey identifies a lifecycle span: the propagated trace ID when the
// emitter carried one, else a per-(scheme,conn) synthetic key so legacy
// traces without span context still reconstruct.
func spanKey(e Event) uint64 {
	if e.Trace != 0 {
		return e.Trace
	}
	return ConnTrace(e.Scheme, e.Conn)
}

// destructiveOutcome reports whether an activate/denied event is a
// destructive recovery outcome (joined to a RecoverySpan) rather than an
// evaluation-sweep probe. Activations use "switch"/"reroute"; sweeps use
// ""/"reactive". Denials use "dropped"; sweeps use the analysis reasons.
func destructiveOutcome(e Event) bool {
	switch e.Kind {
	case EvBackupActivate:
		return e.Reason == "switch" || e.Reason == "reroute"
	case EvActivationDenied:
		return e.Reason == "dropped"
	}
	return false
}

// BuildTrace reconstructs connection and recovery spans from raw events.
// Events may come from several files (several processes); they are
// stably sorted by timestamp first, so per-file ordering breaks ties.
func BuildTrace(events []Event) *Trace {
	sorted := make([]Event, len(events))
	copy(sorted, events)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].T < sorted[j].T })

	tr := &Trace{Total: len(sorted)}
	open := make(map[uint64]*ConnSpan)
	// Recovery spans: latest open span per link; -1 keyed entry tracks
	// the most recent failure overall, for outcomes with no link (edge
	// failures report link=-1 on the denial path).
	recByLink := make(map[int]*RecoverySpan)
	var lastRec *RecoverySpan

	span := func(e Event) *ConnSpan {
		k := spanKey(e)
		s := open[k]
		if s == nil {
			s = newConnSpan(e)
			open[k] = s
			tr.Spans = append(tr.Spans, s)
		}
		if s.Scheme == "" {
			s.Scheme = e.Scheme
		}
		return s
	}

	for _, e := range sorted {
		switch e.Kind {
		case EvLinkState:
			tr.LinkStates = append(tr.LinkStates, e)
			continue
		case EvLSUpdate:
			continue
		case EvLinkFail:
			r := &RecoverySpan{Link: e.Link, Node: e.Node, FailT: e.T}
			tr.Recoveries = append(tr.Recoveries, r)
			recByLink[e.Link] = r
			lastRec = r
			continue
		case EvFaultInjected:
			tr.Faults = append(tr.Faults, e)
			continue
		case EvTraceDropped:
			tr.Dropped += int64(e.N)
			continue
		case EvRetry, EvDedupHit:
			// Join an already-open span only: a duplicate absorbed after
			// teardown must not resurrect the span as "pending".
			if s := open[spanKey(e)]; s != nil {
				s.observe(e)
			}
			continue
		}
		if e.Conn < 0 {
			continue
		}

		switch e.Kind {
		case EvConnRequest:
			// A request on an already-open key means the conn ID was
			// reused (a later simulation cell): close the old span.
			k := spanKey(e)
			if old := open[k]; old != nil {
				delete(open, k)
			}
			s := newConnSpan(e)
			open[k] = s
			tr.Spans = append(tr.Spans, s)
			s.RequestT = e.T
			s.observe(e)
			continue
		}

		s := span(e)
		s.observe(e)
		switch e.Kind {
		case EvPrimarySetup:
			s.SetupT = e.T
		case EvBackupRegister:
			if e.Reason == "" {
				s.Backups++
				if s.RegisterT < 0 {
					s.RegisterT = e.T
				}
			}
		case EvConnEstablish:
			s.ActiveT = e.T
		case EvConnReject:
			s.RejectT = e.T
		case EvBackupActivate:
			if destructiveOutcome(e) {
				s.SwitchT = e.T
				joinRecovery(recByLink, lastRec, e, true)
			} else {
				s.Recovered += int64(e.N)
			}
		case EvActivationDenied:
			if destructiveOutcome(e) {
				s.DropT = e.T
				joinRecovery(recByLink, lastRec, e, false)
			} else {
				s.Denied += int64(e.N)
			}
		case EvConnTeardown:
			s.TeardownT = e.T
			delete(open, spanKey(e))
		}
	}

	for _, s := range tr.Spans {
		s.finish()
	}
	return tr
}

func newConnSpan(e Event) *ConnSpan {
	return &ConnSpan{
		Trace: int64(spanKey(e)), Conn: e.Conn, Scheme: e.Scheme,
		RequestT: -1, SetupT: -1, RegisterT: -1, ActiveT: -1, RejectT: -1,
		SwitchT: -1, DropT: -1, TeardownT: -1,
	}
}

// observe appends the event and tracks the emitting node.
func (s *ConnSpan) observe(e Event) {
	s.Events = append(s.Events, e)
	if e.Node >= 0 {
		for _, n := range s.Nodes {
			if n == e.Node {
				return
			}
		}
		s.Nodes = append(s.Nodes, e.Node)
	}
}

// finish derives the span outcome once all events are in.
func (s *ConnSpan) finish() {
	sort.Ints(s.Nodes)
	switch {
	case s.DropT >= 0:
		s.Outcome = "dropped"
	case s.RejectT >= 0 && s.ActiveT < 0:
		s.Outcome = "rejected"
	case s.TeardownT >= 0:
		s.Outcome = "released"
	case s.SwitchT >= 0:
		s.Outcome = "switched"
	case s.ActiveT >= 0:
		s.Outcome = "active"
	default:
		s.Outcome = "pending"
	}
}

// joinRecovery attaches a destructive outcome to the recovery span of
// the failed link; outcomes that carry no link (edge-bundle drops)
// attach to the most recent failure.
func joinRecovery(recByLink map[int]*RecoverySpan, lastRec *RecoverySpan, e Event, recovered bool) {
	var r *RecoverySpan
	if e.Link >= 0 {
		r = recByLink[e.Link]
	}
	if r == nil {
		r = lastRec
	}
	if r == nil {
		return
	}
	r.Outcomes = append(r.Outcomes, RecoveryOutcome{
		Trace: int64(spanKey(e)), Conn: e.Conn, Scheme: e.Scheme,
		Recovered: recovered, Reason: e.Reason, T: e.T,
		Disruption: e.T - r.FailT,
	})
}
