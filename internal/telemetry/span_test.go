package telemetry_test

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/rtcl/drtp/internal/telemetry"
)

// ev is shorthand for building raw trace events in tests; identity fields
// default to "not applicable" like the emit helpers do.
func ev(t float64, kind telemetry.EventKind, mut func(*telemetry.Event)) telemetry.Event {
	e := telemetry.Event{T: t, Kind: kind, Conn: -1, Node: -1, Link: -1, Hops: -1, N: 1}
	if mut != nil {
		mut(&e)
	}
	return e
}

// connEv builds a connection-scoped event carrying the span context.
func connEv(t float64, kind telemetry.EventKind, scheme string, conn int64, mut func(*telemetry.Event)) telemetry.Event {
	return ev(t, kind, func(e *telemetry.Event) {
		e.Scheme = scheme
		e.Conn = conn
		e.Trace = telemetry.ConnTrace(scheme, conn)
		if mut != nil {
			mut(e)
		}
	})
}

// TestBuildTraceLifecycle reconstructs one connection's full lifecycle —
// request, primary setup, backup registration, establishment, hop signals
// from three routers, a link failure, the destructive switch, and the
// teardown — and checks every derived span field.
func TestBuildTraceLifecycle(t *testing.T) {
	const scheme = "D-LSR"
	const conn = int64(7)
	events := []telemetry.Event{
		connEv(1.0, telemetry.EvConnRequest, scheme, conn, func(e *telemetry.Event) { e.Node = 0 }),
		connEv(1.1, telemetry.EvHopSignal, scheme, conn, func(e *telemetry.Event) { e.Node = 1; e.Link = 3; e.Reason = "primary" }),
		connEv(1.2, telemetry.EvHopSignal, scheme, conn, func(e *telemetry.Event) { e.Node = 2; e.Reason = "primary" }),
		connEv(1.3, telemetry.EvPrimarySetup, scheme, conn, func(e *telemetry.Event) { e.Node = 0; e.Hops = 2 }),
		connEv(1.4, telemetry.EvBackupRegister, scheme, conn, func(e *telemetry.Event) { e.Node = 0; e.Hops = 3 }),
		connEv(1.5, telemetry.EvConnEstablish, scheme, conn, func(e *telemetry.Event) { e.Node = 0; e.Hops = 2 }),
		ev(2.0, telemetry.EvLinkFail, func(e *telemetry.Event) { e.Node = 1; e.Link = 3 }),
		connEv(2.25, telemetry.EvBackupActivate, scheme, conn, func(e *telemetry.Event) { e.Node = 0; e.Link = 3; e.Reason = "switch" }),
		connEv(3.0, telemetry.EvConnTeardown, scheme, conn, func(e *telemetry.Event) { e.Node = 0 }),
	}

	tr := telemetry.BuildTrace(events)
	if tr.Total != len(events) {
		t.Fatalf("total = %d, want %d", tr.Total, len(events))
	}
	if len(tr.Spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(tr.Spans))
	}
	sp := tr.Spans[0]
	if sp.Conn != conn || sp.Scheme != scheme {
		t.Fatalf("span identity = (%d, %q)", sp.Conn, sp.Scheme)
	}
	if sp.Trace != int64(telemetry.ConnTrace(scheme, conn)) {
		t.Fatalf("span trace = %d", sp.Trace)
	}
	if sp.RequestT != 1.0 || sp.SetupT != 1.3 || sp.RegisterT != 1.4 ||
		sp.ActiveT != 1.5 || sp.SwitchT != 2.25 || sp.TeardownT != 3.0 {
		t.Fatalf("phase timestamps: %+v", sp)
	}
	if sp.RejectT != -1 || sp.DropT != -1 {
		t.Fatalf("unexpected reject/drop timestamps: %+v", sp)
	}
	if sp.Backups != 1 {
		t.Fatalf("backups = %d", sp.Backups)
	}
	// Teardown after the switch: the span still reports the switch, which
	// is the interesting outcome.
	if sp.Outcome != "released" {
		t.Fatalf("outcome = %q", sp.Outcome)
	}
	// Three distinct routers emitted events for this span.
	if len(sp.Nodes) != 3 || sp.Nodes[0] != 0 || sp.Nodes[1] != 1 || sp.Nodes[2] != 2 {
		t.Fatalf("nodes = %v", sp.Nodes)
	}
	if len(sp.Events) != 8 { // all but the link-fail
		t.Fatalf("span events = %d", len(sp.Events))
	}

	if len(tr.Recoveries) != 1 {
		t.Fatalf("recoveries = %d", len(tr.Recoveries))
	}
	rec := tr.Recoveries[0]
	if rec.Link != 3 || rec.FailT != 2.0 {
		t.Fatalf("recovery span: %+v", rec)
	}
	if len(rec.Outcomes) != 1 {
		t.Fatalf("recovery outcomes = %d", len(rec.Outcomes))
	}
	o := rec.Outcomes[0]
	if !o.Recovered || o.Conn != conn || o.Disruption != 0.25 {
		t.Fatalf("recovery outcome: %+v", o)
	}
}

// TestBuildTraceOutcomes checks the span outcome derivation for every
// terminal state.
func TestBuildTraceOutcomes(t *testing.T) {
	cases := []struct {
		name    string
		events  []telemetry.Event
		outcome string
	}{
		{
			"rejected",
			[]telemetry.Event{
				connEv(1, telemetry.EvConnRequest, "BF", 1, nil),
				connEv(2, telemetry.EvConnReject, "BF", 1, func(e *telemetry.Event) { e.Reason = "no-primary" }),
			},
			"rejected",
		},
		{
			"active",
			[]telemetry.Event{
				connEv(1, telemetry.EvConnRequest, "BF", 2, nil),
				connEv(2, telemetry.EvConnEstablish, "BF", 2, nil),
			},
			"active",
		},
		{
			"released",
			[]telemetry.Event{
				connEv(1, telemetry.EvConnRequest, "BF", 3, nil),
				connEv(2, telemetry.EvConnEstablish, "BF", 3, nil),
				connEv(3, telemetry.EvConnTeardown, "BF", 3, nil),
			},
			"released",
		},
		{
			"switched",
			[]telemetry.Event{
				connEv(1, telemetry.EvConnEstablish, "BF", 4, nil),
				connEv(2, telemetry.EvBackupActivate, "BF", 4, func(e *telemetry.Event) { e.Reason = "switch" }),
			},
			"switched",
		},
		{
			"dropped",
			[]telemetry.Event{
				connEv(1, telemetry.EvConnEstablish, "BF", 5, nil),
				connEv(2, telemetry.EvActivationDenied, "BF", 5, func(e *telemetry.Event) { e.Reason = "dropped" }),
			},
			"dropped",
		},
		{
			"pending",
			[]telemetry.Event{
				connEv(1, telemetry.EvConnRequest, "BF", 6, nil),
			},
			"pending",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := telemetry.BuildTrace(tc.events)
			if len(tr.Spans) != 1 {
				t.Fatalf("spans = %d", len(tr.Spans))
			}
			if got := tr.Spans[0].Outcome; got != tc.outcome {
				t.Fatalf("outcome = %q, want %q", got, tc.outcome)
			}
		})
	}
}

// TestBuildTraceConnIDReuse: a second conn-request on the same
// (scheme, conn) — a later simulation cell reusing IDs — must open a
// fresh span rather than folding into the finished one.
func TestBuildTraceConnIDReuse(t *testing.T) {
	events := []telemetry.Event{
		connEv(1, telemetry.EvConnRequest, "P-LSR", 9, nil),
		connEv(2, telemetry.EvConnEstablish, "P-LSR", 9, nil),
		connEv(3, telemetry.EvConnTeardown, "P-LSR", 9, nil),
		connEv(10, telemetry.EvConnRequest, "P-LSR", 9, nil),
		connEv(11, telemetry.EvConnReject, "P-LSR", 9, func(e *telemetry.Event) { e.Reason = "no-primary" }),
	}
	tr := telemetry.BuildTrace(events)
	if len(tr.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(tr.Spans))
	}
	if tr.Spans[0].Outcome != "released" || tr.Spans[1].Outcome != "rejected" {
		t.Fatalf("outcomes = %q, %q", tr.Spans[0].Outcome, tr.Spans[1].Outcome)
	}
}

// TestBuildTraceLegacyEvents: events without a propagated trace ID (older
// traces) still join into one span via the synthetic (scheme, conn) key.
func TestBuildTraceLegacyEvents(t *testing.T) {
	events := []telemetry.Event{
		ev(1, telemetry.EvConnRequest, func(e *telemetry.Event) { e.Scheme = "D-LSR"; e.Conn = 4 }),
		ev(2, telemetry.EvConnEstablish, func(e *telemetry.Event) { e.Scheme = "D-LSR"; e.Conn = 4 }),
	}
	tr := telemetry.BuildTrace(events)
	if len(tr.Spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(tr.Spans))
	}
	if tr.Spans[0].Outcome != "active" {
		t.Fatalf("outcome = %q", tr.Spans[0].Outcome)
	}
	if tr.Spans[0].Trace != int64(telemetry.ConnTrace("D-LSR", 4)) {
		t.Fatalf("synthetic trace = %d", tr.Spans[0].Trace)
	}
}

// TestBuildTraceRecoveryWithoutLink: a destructive denial that carries no
// link (edge-bundle drops) attaches to the most recent failure.
func TestBuildTraceRecoveryWithoutLink(t *testing.T) {
	events := []telemetry.Event{
		connEv(1, telemetry.EvConnEstablish, "D-LSR", 1, nil),
		ev(5, telemetry.EvLinkFail, func(e *telemetry.Event) { e.Link = 2 }),
		ev(6, telemetry.EvLinkFail, func(e *telemetry.Event) { e.Link = 8 }),
		connEv(6.5, telemetry.EvActivationDenied, "D-LSR", 1, func(e *telemetry.Event) { e.Reason = "dropped" }),
	}
	tr := telemetry.BuildTrace(events)
	if len(tr.Recoveries) != 2 {
		t.Fatalf("recoveries = %d", len(tr.Recoveries))
	}
	first, second := tr.Recoveries[0], tr.Recoveries[1]
	if len(first.Outcomes) != 0 {
		t.Fatalf("outcome attached to the wrong failure: %+v", first)
	}
	if len(second.Outcomes) != 1 || second.Outcomes[0].Recovered {
		t.Fatalf("second recovery span: %+v", second)
	}
	if got := second.Outcomes[0].Disruption; got != 0.5 {
		t.Fatalf("disruption = %v", got)
	}
}

// TestBuildReport exercises the aggregate report: per-scheme tallies and
// fault tolerance, the disruption histogram including the overflow
// bucket, link criticality ordering, and occupancy aggregation.
func TestBuildReport(t *testing.T) {
	var events []telemetry.Event
	// Scheme A: 3 requests, 2 established, 1 rejected; eval sweep sees 2
	// recovered + 1 denied on link 0 -> P_act-bk = 2/3.
	for conn := int64(1); conn <= 3; conn++ {
		events = append(events, connEv(float64(conn), telemetry.EvConnRequest, "A", conn, nil))
		if conn == 3 {
			events = append(events, connEv(float64(conn)+0.1, telemetry.EvConnReject, "A", conn, func(e *telemetry.Event) { e.Reason = "no-primary" }))
			continue
		}
		events = append(events, connEv(float64(conn)+0.1, telemetry.EvBackupRegister, "A", conn, nil))
		events = append(events, connEv(float64(conn)+0.2, telemetry.EvConnEstablish, "A", conn, nil))
	}
	events = append(events,
		connEv(10, telemetry.EvBackupActivate, "A", 1, func(e *telemetry.Event) { e.Link = 0; e.N = 2 }),
		connEv(10, telemetry.EvActivationDenied, "A", 2, func(e *telemetry.Event) { e.Link = 0; e.Reason = "contention" }),
	)
	// Scheme B: one destructive failure on link 5 — one switch (disruption
	// 0.004, first bucket) and one drop; a second failure on link 5 with a
	// huge disruption lands in the +Inf bucket.
	events = append(events,
		connEv(11, telemetry.EvConnEstablish, "B", 21, nil),
		connEv(11.5, telemetry.EvConnEstablish, "B", 22, nil),
		ev(20, telemetry.EvLinkFail, func(e *telemetry.Event) { e.Link = 5 }),
		connEv(20.004, telemetry.EvBackupActivate, "B", 21, func(e *telemetry.Event) { e.Link = 5; e.Reason = "switch" }),
		connEv(20.004, telemetry.EvActivationDenied, "B", 22, func(e *telemetry.Event) { e.Link = 5; e.Reason = "dropped" }),
		ev(30, telemetry.EvLinkFail, func(e *telemetry.Event) { e.Link = 5 }),
		connEv(40, telemetry.EvBackupActivate, "B", 21, func(e *telemetry.Event) { e.Link = 5; e.Reason = "switch" }),
	)
	// Occupancy samples for scheme B, link 5.
	events = append(events,
		ev(21, telemetry.EvLinkState, func(e *telemetry.Event) { e.Scheme = "B"; e.Link = 5; e.Prime = 4; e.Spare = 2; e.Mux = 3 }),
		ev(22, telemetry.EvLinkState, func(e *telemetry.Event) { e.Scheme = "B"; e.Link = 5; e.Prime = 6; e.Spare = 4; e.Mux = 5 }),
	)

	rep := telemetry.BuildReport(telemetry.BuildTrace(events))

	if rep.Failures != 2 {
		t.Fatalf("failures = %d", rep.Failures)
	}
	if len(rep.Schemes) != 2 || rep.Schemes[0].Scheme != "A" || rep.Schemes[1].Scheme != "B" {
		t.Fatalf("schemes: %+v", rep.Schemes)
	}
	a := rep.Schemes[0]
	if a.Requests != 3 || a.Established != 2 || a.Rejected != 1 || a.BackupOK != 2 {
		t.Fatalf("scheme A tallies: %+v", a)
	}
	// The N=2 activate counts double in the numerator.
	if a.EvalRecovered != 2 || a.EvalDenied != 1 || a.EvalAffected != 3 {
		t.Fatalf("scheme A eval: %+v", a)
	}
	if math.Abs(a.FaultTolerance-2.0/3.0) > 1e-12 {
		t.Fatalf("scheme A P_act-bk = %v", a.FaultTolerance)
	}
	if a.DeniedReasons["contention"] != 1 {
		t.Fatalf("denied reasons: %v", a.DeniedReasons)
	}
	b := rep.Schemes[1]
	if b.Switched != 2 || b.Dropped != 1 || b.EvalAffected != 0 || b.FaultTolerance != 0 {
		t.Fatalf("scheme B tallies: %+v", b)
	}

	d := rep.Disruption
	if d.Samples != 2 || math.Abs(d.Min-0.004) > 1e-9 || d.Max != 10 {
		t.Fatalf("disruption: %+v", d)
	}
	if n := len(d.Buckets); n != 8 { // seven bounds plus +Inf
		t.Fatalf("buckets = %d", n)
	}
	if d.Buckets[1].Le != 0.01 || d.Buckets[1].Count != 1 {
		t.Fatalf("0.01 bucket: %+v", d.Buckets)
	}
	last := d.Buckets[len(d.Buckets)-1]
	if !math.IsInf(last.Le, 1) || last.Count != 1 {
		t.Fatalf("+Inf bucket: %+v", last)
	}

	// Link 5 (1 unrecovered drop + 2 failures) outranks link 0 only on
	// count; link 0 has 1 eval denial. Criticality ties at 1 break on
	// recovered+switched: link 5 has 2 switches vs link 0's 2 recovered —
	// then link ID. Just assert the computed criticalities.
	if len(rep.Links) != 2 {
		t.Fatalf("links = %d", len(rep.Links))
	}
	for _, l := range rep.Links {
		switch l.Link {
		case 0:
			if l.Criticality() != 1 || l.EvalRecovered != 2 || l.Failures != 0 {
				t.Fatalf("link 0: %+v", l)
			}
		case 5:
			if l.Criticality() != 1 || l.Switched != 2 || l.Dropped != 1 || l.Failures != 2 {
				t.Fatalf("link 5: %+v", l)
			}
		default:
			t.Fatalf("unexpected link %d", l.Link)
		}
	}

	if len(rep.Occupancy) != 1 {
		t.Fatalf("occupancy = %+v", rep.Occupancy)
	}
	o := rep.Occupancy[0]
	if o.Scheme != "B" || o.Link != 5 || o.Samples != 2 ||
		o.AvgPrime != 5 || o.AvgSpare != 3 || o.MaxSpare != 4 || o.MaxMux != 5 {
		t.Fatalf("occupancy: %+v", o)
	}
}

// TestConnTraceProperties pins the span-context derivation: deterministic,
// 53-bit JSON-safe, never zero, and distinct across schemes and conn IDs.
func TestConnTraceProperties(t *testing.T) {
	if telemetry.ConnTrace("D-LSR", 7) != telemetry.ConnTrace("D-LSR", 7) {
		t.Fatal("ConnTrace not deterministic")
	}
	seen := map[uint64]string{}
	for _, scheme := range []string{"D-LSR", "P-LSR", "BF", ""} {
		for conn := int64(0); conn < 100; conn++ {
			id := telemetry.ConnTrace(scheme, conn)
			if id == 0 {
				t.Fatalf("zero trace for (%q, %d)", scheme, conn)
			}
			if id >= 1<<53 {
				t.Fatalf("trace %d exceeds 53 bits", id)
			}
			key := fmt.Sprintf("%s/%d", scheme, conn)
			if prev, dup := seen[id]; dup {
				t.Fatalf("collision: %s and %s -> %d", prev, key, id)
			}
			seen[id] = key
		}
	}
}

// TestConcurrentSpanEmitJSONLRoundTrip drives full lifecycle span emits
// from many goroutines into a JSONL sink and decodes what was encoded
// (run under -race in CI): every event survives the round trip and the
// reconstructed spans are complete.
func TestConcurrentSpanEmitJSONLRoundTrip(t *testing.T) {
	const (
		workers = 8
		conns   = 25
		perConn = 5 // request, setup, register, establish, teardown
	)
	var buf bytes.Buffer
	tr := telemetry.NewTracer(telemetry.NewJSONL(&buf))
	tr.SetNode(3)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scheme := fmt.Sprintf("S%d", w)
			for i := 0; i < conns; i++ {
				conn := int64(i)
				trace := telemetry.ConnTrace(scheme, conn)
				tr.ConnRequest(scheme, trace, conn)
				tr.PrimarySetup(scheme, trace, conn, 2)
				tr.BackupRegister(scheme, trace, conn, 3, "")
				tr.ConnEstablish(scheme, trace, conn, 2)
				tr.ConnTeardown(scheme, trace, conn)
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != workers*conns*perConn {
		t.Fatalf("decoded %d events, want %d", len(events), workers*conns*perConn)
	}
	for _, e := range events {
		if e.Trace == 0 || e.Node != 3 {
			t.Fatalf("event missing span context or node: %+v", e)
		}
	}

	rebuilt := telemetry.BuildTrace(events)
	if len(rebuilt.Spans) != workers*conns {
		t.Fatalf("spans = %d, want %d", len(rebuilt.Spans), workers*conns)
	}
	for _, sp := range rebuilt.Spans {
		if sp.Outcome != "released" || sp.Backups != 1 || len(sp.Events) != perConn {
			t.Fatalf("incomplete span: %+v", sp)
		}
		if sp.Trace != int64(telemetry.ConnTrace(sp.Scheme, sp.Conn)) {
			t.Fatalf("span trace mismatch: %+v", sp)
		}
	}
}

// TestBuildTraceSumsDropTrailers asserts trace-dropped trailers from
// several files add up in Trace.Dropped and the report, and open no span.
func TestBuildTraceSumsDropTrailers(t *testing.T) {
	trailer := func(n int) telemetry.Event {
		return ev(5, telemetry.EvTraceDropped, func(e *telemetry.Event) { e.N = n })
	}
	tr := telemetry.BuildTrace([]telemetry.Event{trailer(3), trailer(4)})
	if tr.Dropped != 7 || len(tr.Spans) != 0 || len(tr.Recoveries) != 0 {
		t.Fatalf("trace: dropped=%d spans=%d recoveries=%d", tr.Dropped, len(tr.Spans), len(tr.Recoveries))
	}
	if got := telemetry.BuildReport(tr).Dropped; got != 7 {
		t.Fatalf("report dropped = %d, want 7", got)
	}
}
