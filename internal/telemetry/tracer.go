package telemetry

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// EventKind enumerates the typed protocol events the subsystem traces.
type EventKind uint8

const (
	// EvConnEstablish records an accepted DR-connection.
	EvConnEstablish EventKind = iota + 1
	// EvConnReject records a rejected DR-connection request.
	EvConnReject
	// EvBackupRegister records one backup channel registration attempt
	// (Reason is empty on success, "rejected" on a mid-path rejection).
	EvBackupRegister
	// EvBackupRelease records backup registrations released at teardown
	// (N = number of backup channels released).
	EvBackupRelease
	// EvLinkFail records a link declared failed (destructive failure or
	// hello-miss detection).
	EvLinkFail
	// EvBackupActivate records a successful backup activation for a
	// connection whose primary was hit by a failure.
	EvBackupActivate
	// EvActivationDenied records a failed recovery attempt; Reason is one
	// of "no-backup", "backup-hit", "contention", "no-route", "dropped".
	EvActivationDenied
	// EvCDPForward records channel-discovery-packet transmissions of one
	// bounded flood (N = number of CDP copies forwarded).
	EvCDPForward
	// EvCDPDrop records CDP copies discarded during one bounded flood;
	// Reason labels the discarding test ("detour" for the valid-detour
	// test, "hop-limit" for the distance test against hc_limit).
	EvCDPDrop
	// EvLSUpdate records a link-state advertisement flood (N = number of
	// link summaries carried). With Reason "out-of-range" it records N
	// received summaries dropped for naming a link outside the topology.
	EvLSUpdate
	// EvConnRequest opens a connection's lifecycle span: one per
	// Establish attempt, before any routing or signalling.
	EvConnRequest
	// EvPrimarySetup records the primary channel reserved end-to-end
	// (Hops = primary route length); backup registration follows.
	EvPrimarySetup
	// EvConnTeardown closes a connection's lifecycle span at release.
	EvConnTeardown
	// EvHopSignal records one hop of distributed signalling processed at
	// an intermediate or terminal router (Reason names the signalling
	// role: "primary", "backup", "activate", "teardown"). The hop events
	// of one connection share its trace ID, joining multi-node traces.
	EvHopSignal
	// EvLinkState samples one link's occupancy (Prime/Spare bandwidth
	// units reserved, Mux = backups multiplexed on the spare pool) at an
	// evaluation epoch.
	EvLinkState
	// EvRetry records one retransmission of a signalling round trip after
	// a timeout (Reason names the retried operation: "setup", "activate",
	// "teardown", "failure-report").
	EvRetry
	// EvDedupHit records a duplicate signalling packet absorbed by the
	// idempotent dedup layer at a hop (Reason names the packet role).
	EvDedupHit
	// EvFaultInjected records one fault applied by the chaos layer
	// (Reason names the action: "drop", "dup", "reorder", "delay",
	// "crash", "partition", "edge-fail", "edge-repair").
	EvFaultInjected
	// EvNodeJoin records a node runtime registering with the setup
	// coordinator's registry.
	EvNodeJoin
	// EvNodeLeave records a node leaving the registry (Reason is
	// "heartbeat-miss", "leave" or "drain").
	EvNodeLeave
	// EvHeartbeatMiss records the coordinator declaring a node dead after
	// missing its heartbeats.
	EvHeartbeatMiss
	// EvAdmissionReject records the coordinator refusing a tenant's
	// establishment request (Reason is "quota-conns", "quota-bandwidth",
	// "unknown-node", "draining", "node-down" or "duplicate").
	EvAdmissionReject
	// EvDrainStart records the beginning of a node drain: the node is
	// unschedulable and the connections ending at it are being released.
	EvDrainStart
	// EvDrainDone records that a drain has released the connections
	// ending at the node and announced it to its neighbours (Hops reused
	// as the dropped count, -1 never).
	EvDrainDone
	// EvTraceDropped is the trailer a StreamSink writes on Close when its
	// queue overflowed: N events are missing from the trace.
	EvTraceDropped
)

var kindNames = map[EventKind]string{
	EvConnEstablish:    "conn-establish",
	EvConnReject:       "conn-reject",
	EvBackupRegister:   "backup-register",
	EvBackupRelease:    "backup-release",
	EvLinkFail:         "link-fail",
	EvBackupActivate:   "backup-activate",
	EvActivationDenied: "activation-denied",
	EvCDPForward:       "cdp-forward",
	EvCDPDrop:          "cdp-drop",
	EvLSUpdate:         "ls-update",
	EvConnRequest:      "conn-request",
	EvPrimarySetup:     "primary-setup",
	EvConnTeardown:     "conn-teardown",
	EvHopSignal:        "hop-signal",
	EvLinkState:        "link-state",
	EvRetry:            "retry",
	EvDedupHit:         "dedup-hit",
	EvFaultInjected:    "fault-injected",
	EvNodeJoin:         "node-join",
	EvNodeLeave:        "node-leave",
	EvHeartbeatMiss:    "heartbeat-miss",
	EvAdmissionReject:  "admission-reject",
	EvDrainStart:       "drain-start",
	EvDrainDone:        "drain-done",
	EvTraceDropped:     "trace-dropped",
}

// String returns the kind's stable wire name.
func (k EventKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("unknown-%d", uint8(k))
}

// ParseEventKind maps a wire name back to its kind.
func ParseEventKind(s string) (EventKind, bool) {
	for k, name := range kindNames {
		if name == s {
			return k, true
		}
	}
	return 0, false
}

// MarshalJSON encodes the kind as its wire name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON decodes a wire name.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("telemetry: bad event kind %s", b)
	}
	kind, ok := ParseEventKind(string(b[1 : len(b)-1]))
	if !ok {
		return fmt.Errorf("telemetry: unknown event kind %s", b)
	}
	*k = kind
	return nil
}

// Event is one structured trace record. Numeric identity fields use -1
// when not applicable so every JSONL line carries the full schema.
type Event struct {
	// T is the trace timestamp: simulated minutes when a simulation
	// installed its clock (Tracer.SetClock), absolute Unix seconds
	// otherwise — so traces written by separate processes merge on a
	// common timeline.
	T float64 `json:"t"`
	// Kind is the event type, serialized as its wire name.
	Kind EventKind `json:"kind"`
	// Conn is the affected DR-connection (-1 when not applicable).
	Conn int64 `json:"conn"`
	// Node is the emitting router's node ID (-1 for centralized runs).
	Node int `json:"node"`
	// Link is the relevant link ID, e.g. the failed link (-1 when not
	// applicable).
	Link int `json:"link"`
	// Hops is the route length in hops (-1 when not applicable).
	Hops int `json:"hops"`
	// N is the event multiplicity (aggregated kinds; at least 1).
	N int `json:"n"`
	// Trace is the connection's span context: a deterministic 53-bit ID
	// (see ConnTrace) shared by every event of one connection's
	// lifecycle, across every router that handles its signalling. Zero
	// for events not tied to a connection span.
	Trace uint64 `json:"trace,omitempty"`
	// Prime and Spare are reserved bandwidth units on Link, and Mux the
	// number of backups multiplexed on its spare pool (EvLinkState only).
	Prime int `json:"prime,omitempty"`
	Spare int `json:"spare,omitempty"`
	Mux   int `json:"mux,omitempty"`
	// Scheme is the routing scheme's name, when known.
	Scheme string `json:"scheme,omitempty"`
	// Reason qualifies rejections, denials, drops and signalling roles.
	Reason string `json:"reason,omitempty"`
	// Tenant is the owning tenant of the affected connection, for events
	// emitted by the multi-tenant control plane.
	Tenant string `json:"tenant,omitempty"`
}

// ConnTrace derives the deterministic trace ID that keys every event of
// one DR-connection's lifecycle span. Each emitter along the signalling
// path could recompute it, but only the connection's source does: routers
// propagate the ID inside the signalling packets so remote hops stamp
// the span context they received, not one they derived (FNV-1a over the
// scheme name and connection ID, masked to 53 bits so the value survives
// JSON number round trips; never zero).
func ConnTrace(scheme string, conn int64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(scheme); i++ {
		h ^= uint64(scheme[i])
		h *= prime64
	}
	for s := uint(0); s < 64; s += 8 {
		h ^= uint64(uint8(conn >> s))
		h *= prime64
	}
	h &= 1<<53 - 1
	if h == 0 {
		h = 1
	}
	return h
}

// Sink receives emitted events. Implementations must be safe for
// concurrent use; Record must not block on slow consumers beyond its own
// writer (the distributed routers emit from their processing loops).
type Sink interface {
	Record(Event)
}

// Tracer is the event bus: it stamps events and fans them out to its
// sinks. A nil *Tracer, and a Tracer with no sinks, are no-ops — hot
// paths call the typed emit helpers unconditionally.
type Tracer struct {
	sinks []Sink
	clock atomic.Pointer[func() float64]
	node  atomic.Int64
}

// NewTracer creates a tracer fanning out to the given sinks.
func NewTracer(sinks ...Sink) *Tracer {
	t := &Tracer{sinks: sinks}
	t.node.Store(-1)
	return t
}

// Enabled reports whether emitted events reach at least one sink.
func (t *Tracer) Enabled() bool { return t != nil && len(t.sinks) > 0 }

// SetClock installs the timestamp source (e.g. simulated time). A nil fn
// restores the default wall clock (absolute Unix seconds).
func (t *Tracer) SetClock(fn func() float64) {
	if t == nil {
		return
	}
	if fn == nil {
		t.clock.Store(nil)
		return
	}
	t.clock.Store(&fn)
}

// SetNode installs a default node ID stamped onto events emitted without
// one (Node < 0). Single-router processes such as cmd/drtpnode use it so
// their source-side events are attributable in merged multi-node traces.
func (t *Tracer) SetNode(node int) {
	if t == nil {
		return
	}
	t.node.Store(int64(node))
}

func (t *Tracer) now() float64 {
	if fn := t.clock.Load(); fn != nil {
		return (*fn)()
	}
	return float64(time.Now().UnixNano()) / 1e9
}

// Emit stamps the event with the tracer clock and records it in every
// sink. Events with zero multiplicity are normalized to N=1.
func (t *Tracer) Emit(e Event) {
	if !t.Enabled() {
		return
	}
	e.T = t.now()
	if e.N < 1 {
		e.N = 1
	}
	if e.Node < 0 {
		if n := t.node.Load(); n >= 0 {
			e.Node = int(n)
		}
	}
	for _, s := range t.sinks {
		s.Record(e)
	}
}

// BatchSink is an optional Sink extension: RecordBatch records a slice of
// already-stamped events, preserving order, under one lock acquisition.
// ForwardBatch uses it when a sink provides it.
type BatchSink interface {
	Sink
	// RecordBatch records the events in order. The slice is only valid
	// for the duration of the call; retaining sinks must copy.
	RecordBatch([]Event)
}

// ForwardBatch records already-stamped events in every sink, in order,
// without touching their timestamps or default node: the replay path for
// a cell's event stream captured in a Buffer during a concurrent
// experiment and merged into the shared sinks in deterministic cell
// order. It normalizes multiplicities in place (so the caller must own
// the slice), as Emit does. Sinks
// implementing BatchSink take the slice in one call — one lock
// acquisition per cell instead of one per event — and the rest receive
// per-event Record calls, with byte-identical results either way.
func (t *Tracer) ForwardBatch(events []Event) {
	if !t.Enabled() || len(events) == 0 {
		return
	}
	for i := range events {
		if events[i].N < 1 {
			events[i].N = 1
		}
	}
	for _, s := range t.sinks {
		if bs, ok := s.(BatchSink); ok {
			bs.RecordBatch(events)
			continue
		}
		for _, e := range events {
			s.Record(e)
		}
	}
}

// Close closes every sink that implements io.Closer (flushing buffered
// writers), returning the first error.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	var first error
	for _, s := range t.sinks {
		if c, ok := s.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// --- typed emit helpers ------------------------------------------------
//
// Each helper takes scalar arguments so that the disabled path costs one
// nil/len check and no Event construction. Connection-scoped helpers
// take the span's trace ID (ConnTrace; zero when the caller has none).

// ConnRequest opens the connection's lifecycle span: one per Establish
// attempt, emitted before routing or signalling starts.
func (t *Tracer) ConnRequest(scheme string, trace uint64, conn int64) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{Kind: EvConnRequest, Conn: conn, Node: -1, Link: -1, Hops: -1,
		Trace: trace, Scheme: scheme})
}

// PrimarySetup records the primary channel reserved end-to-end.
func (t *Tracer) PrimarySetup(scheme string, trace uint64, conn int64, hops int) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{Kind: EvPrimarySetup, Conn: conn, Node: -1, Link: -1,
		Hops: hops, Trace: trace, Scheme: scheme})
}

// ConnEstablish records an accepted connection with its primary length;
// the connection's backup channels appear as BackupRegister events.
func (t *Tracer) ConnEstablish(scheme string, trace uint64, conn int64, primaryHops int) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{Kind: EvConnEstablish, Conn: conn, Node: -1, Link: -1,
		Hops: primaryHops, Trace: trace, Scheme: scheme})
}

// ConnReject records a rejected request.
func (t *Tracer) ConnReject(scheme string, trace uint64, conn int64, reason string) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{Kind: EvConnReject, Conn: conn, Node: -1, Link: -1, Hops: -1,
		Trace: trace, Scheme: scheme, Reason: reason})
}

// BackupRegister records one backup registration attempt; reason is
// empty on success.
func (t *Tracer) BackupRegister(scheme string, trace uint64, conn int64, hops int, reason string) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{Kind: EvBackupRegister, Conn: conn, Node: -1, Link: -1,
		Hops: hops, Trace: trace, Scheme: scheme, Reason: reason})
}

// BackupRelease records n backup channels released at teardown.
func (t *Tracer) BackupRelease(scheme string, trace uint64, conn int64, n int) {
	if !t.Enabled() || n <= 0 {
		return
	}
	t.Emit(Event{Kind: EvBackupRelease, Conn: conn, Node: -1, Link: -1,
		Hops: -1, N: n, Trace: trace, Scheme: scheme})
}

// ConnTeardown closes the connection's lifecycle span at release.
func (t *Tracer) ConnTeardown(scheme string, trace uint64, conn int64) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{Kind: EvConnTeardown, Conn: conn, Node: -1, Link: -1, Hops: -1,
		Trace: trace, Scheme: scheme})
}

// LinkFail records link l declared failed; node is the detecting router
// (-1 for centralized failure injection).
func (t *Tracer) LinkFail(node, link int) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{Kind: EvLinkFail, Conn: -1, Node: node, Link: link, Hops: -1})
}

// BackupActivate records a successful backup activation for conn after
// the failure of link (which may be -1 when unknown, e.g. edge bundles).
// reason distinguishes evaluation sweeps (empty), reactive re-routes
// ("reactive") and destructive channel switches ("switch", "reroute").
func (t *Tracer) BackupActivate(scheme string, trace uint64, conn int64, link int, reason string) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{Kind: EvBackupActivate, Conn: conn, Node: -1, Link: link,
		Hops: -1, Trace: trace, Scheme: scheme, Reason: reason})
}

// ActivationDenied records a failed recovery attempt for conn.
func (t *Tracer) ActivationDenied(scheme string, trace uint64, conn int64, link int, reason string) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{Kind: EvActivationDenied, Conn: conn, Node: -1, Link: link,
		Hops: -1, Trace: trace, Scheme: scheme, Reason: reason})
}

// HopSignal records one hop of distributed signalling handled at node:
// role names the packet ("primary", "backup", "activate", "teardown"),
// link the out-link reserved/released there (-1 at a route's terminus).
func (t *Tracer) HopSignal(trace uint64, conn int64, node, link int, role string) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{Kind: EvHopSignal, Conn: conn, Node: node, Link: link, Hops: -1,
		Trace: trace, Reason: role})
}

// CDPForward records n CDP transmissions of one bounded flood.
func (t *Tracer) CDPForward(scheme string, trace uint64, conn int64, n int) {
	if !t.Enabled() || n <= 0 {
		return
	}
	t.Emit(Event{Kind: EvCDPForward, Conn: conn, Node: -1, Link: -1, Hops: -1,
		N: n, Trace: trace, Scheme: scheme})
}

// CDPDrop records n CDP copies discarded during one flood; reason labels
// the discarding test ("detour" or "hop-limit").
func (t *Tracer) CDPDrop(scheme string, trace uint64, conn int64, n int, reason string) {
	if !t.Enabled() || n <= 0 {
		return
	}
	t.Emit(Event{Kind: EvCDPDrop, Conn: conn, Node: -1, Link: -1, Hops: -1,
		N: n, Trace: trace, Scheme: scheme, Reason: reason})
}

// LSUpdate records a link-state advertisement flood from node carrying n
// link summaries.
func (t *Tracer) LSUpdate(node, n int) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{Kind: EvLSUpdate, Conn: -1, Node: node, Link: -1, Hops: -1, N: n})
}

// LSUpdateDropped records n link summaries node received and dropped
// because they name a link outside the topology.
func (t *Tracer) LSUpdateDropped(node, n int) {
	if !t.Enabled() || n <= 0 {
		return
	}
	t.Emit(Event{Kind: EvLSUpdate, Conn: -1, Node: node, Link: -1, Hops: -1, N: n, Reason: "out-of-range"})
}

// LinkState samples link occupancy at an evaluation epoch: prime/spare
// reserved bandwidth units and the number of multiplexed backups.
func (t *Tracer) LinkState(scheme string, link, prime, spare, mux int) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{Kind: EvLinkState, Conn: -1, Node: -1, Link: link, Hops: -1,
		Prime: prime, Spare: spare, Mux: mux, Scheme: scheme})
}

// Retry records one retransmission of a signalling round trip for conn:
// op names the retried operation ("setup", "activate", "teardown",
// "failure-report").
func (t *Tracer) Retry(scheme string, trace uint64, conn int64, op string) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{Kind: EvRetry, Conn: conn, Node: -1, Link: -1, Hops: -1,
		Trace: trace, Scheme: scheme, Reason: op})
}

// DedupHit records a duplicate signalling packet absorbed at node; role
// names the packet ("primary", "backup", "activate", "teardown").
func (t *Tracer) DedupHit(trace uint64, conn int64, node int, role string) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{Kind: EvDedupHit, Conn: conn, Node: node, Link: -1, Hops: -1,
		Trace: trace, Reason: role})
}

// NodeJoin records a node runtime registering with the coordinator.
func (t *Tracer) NodeJoin(node int) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{Kind: EvNodeJoin, Conn: -1, Node: node, Link: -1, Hops: -1})
}

// NodeLeave records a node leaving the registry; reason is
// "heartbeat-miss", "leave" or "drain".
func (t *Tracer) NodeLeave(node int, reason string) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{Kind: EvNodeLeave, Conn: -1, Node: node, Link: -1, Hops: -1,
		Reason: reason})
}

// HeartbeatMiss records the coordinator declaring a node dead after
// missed heartbeats.
func (t *Tracer) HeartbeatMiss(node int) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{Kind: EvHeartbeatMiss, Conn: -1, Node: node, Link: -1, Hops: -1})
}

// AdmissionReject records the coordinator refusing a tenant's request.
func (t *Tracer) AdmissionReject(tenant string, conn int64, reason string) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{Kind: EvAdmissionReject, Conn: conn, Node: -1, Link: -1,
		Hops: -1, Tenant: tenant, Reason: reason})
}

// DrainStart records the beginning of a node drain.
func (t *Tracer) DrainStart(node int) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{Kind: EvDrainStart, Conn: -1, Node: node, Link: -1, Hops: -1})
}

// DrainDone records that a drain has released the dropped connections
// ending at the node and announced it.
func (t *Tracer) DrainDone(node, dropped int) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{Kind: EvDrainDone, Conn: -1, Node: node, Link: -1, Hops: dropped})
}

// FaultInjected records one fault applied by the chaos layer: action
// names it ("drop", "dup", "reorder", "delay", "crash", "partition",
// "edge-fail", "edge-repair"), node is the sending/affected node (-1
// when not applicable), link the affected link or edge (-1 likewise),
// and conn the affected connection when the faulted packet carries one.
func (t *Tracer) FaultInjected(node, link int, conn int64, action string) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{Kind: EvFaultInjected, Conn: conn, Node: node, Link: link,
		Hops: -1, Reason: action})
}
