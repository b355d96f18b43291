package drtp

import (
	"fmt"
	"slices"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/telemetry"
)

// Connection is an established DR-connection.
type Connection struct {
	ID  ConnID
	Src graph.NodeID
	Dst graph.NodeID
	// Primary is the primary channel route.
	Primary graph.Path
	// Backups are the established backup channel routes in activation-
	// preference order. Empty when the connection has no backup (counts
	// against fault tolerance; only possible under the backup-optional
	// admission policy).
	Backups []graph.Path
	// seq orders connections by establishment for deterministic
	// activation priority under contention.
	seq int64
	// trace keys the connection's lifecycle span (telemetry.ConnTrace);
	// zero when the manager traces nothing.
	trace uint64
}

// HasBackup reports whether the connection has at least one backup.
func (c *Connection) HasBackup() bool { return len(c.Backups) > 0 }

// Backup returns the first (preferred) backup route, or an empty path.
func (c *Connection) Backup() graph.Path {
	if len(c.Backups) == 0 {
		return graph.Path{}
	}
	return c.Backups[0]
}

// Stats aggregates the Manager's admission-control outcomes.
type Stats struct {
	// Requests is the number of Establish calls.
	Requests int64
	// Accepted is the number of established connections.
	Accepted int64
	// Rejected is the number of requests with no feasible primary route.
	Rejected int64
	// RejectedNoBackup is the number of requests rejected because no
	// backup channel could be established (backup-required policy only).
	RejectedNoBackup int64
	// BackupLess is the number of accepted connections that ended up
	// without any backup channel (backup-optional policy only).
	BackupLess int64
	// BackupsEstablished is the total number of backup channels
	// successfully registered.
	BackupsEstablished int64
	// BackupRegisterFailures counts backups whose register packet was
	// rejected mid-path.
	BackupRegisterFailures int64
	// SignalRetries counts retransmitted signalling round trips under
	// WithSignalFaults.
	SignalRetries int64
	// SignalTimeouts counts signalling round trips lost on every attempt
	// of their retry budget under WithSignalFaults.
	SignalTimeouts int64
}

// AcceptRatio returns Accepted/Requests, or 0 when no requests were made.
func (s Stats) AcceptRatio() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Accepted) / float64(s.Requests)
}

// Manager is the DR-connection manager: it owns admission, resource
// reservation, backup registration and teardown for one network under one
// routing scheme.
type Manager struct {
	net              *Network
	scheme           Scheme
	conns            map[ConnID]*Connection
	nexSeq           int64
	stats            Stats
	optionalBackup   bool
	reactiveRecovery bool
	// tracer receives protocol events; nil (the default) is a no-op, so
	// the instrumented paths cost a nil check each.
	tracer     *telemetry.Tracer
	schemeName string
	// signal, when non-nil, makes signalling round trips lossy (see
	// WithSignalFaults).
	signal *signalFaults
	// collectRecovery turns on per-connection recovery-latency sampling
	// during destructive failures (see WithRecoveryLatency); recovery
	// accumulates the samples until TakeRecoveryLatencies.
	collectRecovery bool
	recovery        []RecoveryLatency
	// eval holds the failure-evaluation scratch buffers reused across
	// Evaluate*Failure calls (see failure.go).
	eval evalScratch
}

// ManagerOption configures a Manager.
type ManagerOption interface {
	apply(*Manager)
}

type optionalBackupOption struct{}

func (optionalBackupOption) apply(m *Manager) { m.optionalBackup = true }

// WithOptionalBackup makes the manager admit connections even when no
// backup channel can be established. The default (paper) policy rejects a
// DR-connection request whose backup cannot be set up: a dependable
// connection is a primary plus at least one backup.
func WithOptionalBackup() ManagerOption { return optionalBackupOption{} }

type reactiveRecoveryOption struct{}

func (reactiveRecoveryOption) apply(m *Manager) { m.reactiveRecovery = true }

type telemetryOption struct{ tracer *telemetry.Tracer }

func (o telemetryOption) apply(m *Manager) { m.tracer = o.tracer }

// WithTelemetry attaches an event tracer to the manager: establishments,
// rejections, backup registrations/releases and failure-recovery
// outcomes are emitted as typed events. A nil tracer keeps the no-op
// default.
func WithTelemetry(tr *telemetry.Tracer) ManagerOption { return telemetryOption{tracer: tr} }

type recoveryLatencyOption struct{}

func (recoveryLatencyOption) apply(m *Manager) { m.collectRecovery = true }

// WithRecoveryLatency makes the manager record a RecoveryLatency sample
// for every connection hit by a destructive failure (ApplyLinkFailure /
// ApplyEdgeFailure). Off by default: sampling appends to a slice, and the
// steady-state failure paths must stay allocation-free when nobody reads
// the samples. Drain with TakeRecoveryLatencies.
func WithRecoveryLatency() ManagerOption { return recoveryLatencyOption{} }

// WithReactiveRecovery makes destructive failure handling fall back to
// re-routing a fresh primary from free capacity when a connection has no
// activatable backup — the reactive recovery of the paper's §1 (modelled
// without its signalling latency and retry contention). Combine with
// WithOptionalBackup and the no-backup scheme for a purely reactive
// baseline.
func WithReactiveRecovery() ManagerOption { return reactiveRecoveryOption{} }

// NewManager creates a manager for the network using the given scheme.
func NewManager(net *Network, scheme Scheme, opts ...ManagerOption) *Manager {
	m := &Manager{
		net:    net,
		scheme: scheme,
		conns:  make(map[ConnID]*Connection),
	}
	for _, o := range opts {
		o.apply(m)
	}
	m.schemeName = scheme.Name()
	return m
}

// Network returns the managed network.
func (m *Manager) Network() *Network { return m.net }

// Scheme returns the routing scheme in use.
func (m *Manager) Scheme() Scheme { return m.scheme }

// Stats returns a copy of the admission statistics.
func (m *Manager) Stats() Stats { return m.stats }

// NumActive returns the number of active connections.
func (m *Manager) NumActive() int { return len(m.conns) }

// NumActiveWithBackup returns the number of active connections that have
// at least one backup channel.
func (m *Manager) NumActiveWithBackup() int {
	n := 0
	for _, c := range m.conns {
		if c.HasBackup() {
			n++
		}
	}
	return n
}

// TakeRecoveryLatencies returns the recovery-latency samples collected
// since the last call (under WithRecoveryLatency) and resets the buffer.
// Samples appear in failure order, connections within one failure in
// establishment order, so the sequence is deterministic.
func (m *Manager) TakeRecoveryLatencies() []RecoveryLatency {
	out := m.recovery
	m.recovery = nil
	return out
}

// Get returns the active connection with the given ID.
func (m *Manager) Get(id ConnID) (*Connection, bool) {
	c, ok := m.conns[id]
	return c, ok
}

// Connections returns the active connections ordered by establishment.
func (m *Manager) Connections() []*Connection {
	out := make([]*Connection, 0, len(m.conns))
	for _, c := range m.conns {
		out = append(out, c)
	}
	slices.SortFunc(out, bySeq)
	return out
}

// Establish admits a DR-connection: it routes via the scheme, reserves the
// primary, and registers each backup along its path (step 3 of §2.2, with
// the primary's LSET piggybacked). A backup whose register packet is
// rejected mid-path is released (the backup-release packet of the paper)
// and dropped; the connection keeps its remaining backups. Under the
// default policy a connection that ends up with zero backups is rejected
// entirely and its primary reservation rolled back.
//
// It returns ErrNoRoute when no feasible primary exists; the request is
// then rejected and no resources are held.
func (m *Manager) Establish(req Request) (*Connection, error) {
	m.stats.Requests++
	if _, dup := m.conns[req.ID]; dup {
		return nil, fmt.Errorf("drtp: connection %d already active", req.ID)
	}
	// The span context is derived only when tracing is on: the hash is
	// cheap but not free, and the disabled path must stay a nil check.
	var trace uint64
	if m.tracer.Enabled() {
		trace = telemetry.ConnTrace(m.schemeName, int64(req.ID))
		m.tracer.ConnRequest(m.schemeName, trace, int64(req.ID))
	}
	route, err := m.scheme.Route(m.net, req)
	if err != nil {
		m.stats.Rejected++
		m.tracer.ConnReject(m.schemeName, trace, int64(req.ID), "no-route")
		return nil, err
	}
	if route.Primary.Empty() {
		m.stats.Rejected++
		m.tracer.ConnReject(m.schemeName, trace, int64(req.ID), "no-route")
		return nil, ErrNoRoute
	}
	if !m.optionalBackup && len(route.Backups) == 0 {
		m.stats.RejectedNoBackup++
		m.tracer.ConnReject(m.schemeName, trace, int64(req.ID), "no-backup")
		return nil, ErrNoBackup
	}
	// The primary-setup round trip travels before any resource is held, so
	// losing it rejects the request without leaking reservations.
	if !m.signalOK(trace, req.ID, "setup") {
		m.tracer.ConnReject(m.schemeName, trace, int64(req.ID), "signal-timeout")
		return nil, ErrSignalTimeout
	}

	db := m.net.DB()
	if err := db.ReservePrimaryPath(req.ID, route.Primary.Links()); err != nil {
		m.stats.Rejected++
		m.tracer.ConnReject(m.schemeName, trace, int64(req.ID), "no-capacity")
		return nil, fmt.Errorf("drtp: reserve primary: %w", err)
	}
	m.tracer.PrimarySetup(m.schemeName, trace, int64(req.ID), route.Primary.Hops())

	conn := &Connection{
		ID:      req.ID,
		Src:     req.Src,
		Dst:     req.Dst,
		Primary: route.Primary,
		seq:     m.nexSeq,
		trace:   trace,
	}
	m.nexSeq++

	for _, backup := range route.Backups {
		if backup.Empty() {
			continue
		}
		if !m.signalOK(trace, req.ID, "setup") {
			m.stats.BackupRegisterFailures++
			m.tracer.BackupRegister(m.schemeName, trace, int64(req.ID), backup.Hops(), "signal-timeout")
			continue
		}
		if m.registerBackup(req.ID, backup, route.Primary, conn.Backups) {
			conn.Backups = append(conn.Backups, backup)
			m.stats.BackupsEstablished++
			m.tracer.BackupRegister(m.schemeName, trace, int64(req.ID), backup.Hops(), "")
		} else {
			m.stats.BackupRegisterFailures++
			m.tracer.BackupRegister(m.schemeName, trace, int64(req.ID), backup.Hops(), "rejected")
		}
	}
	if !conn.HasBackup() {
		if !m.optionalBackup {
			mustRelease(db.ReleasePrimaryPath(req.ID, route.Primary.Links()))
			m.stats.RejectedNoBackup++
			m.tracer.ConnReject(m.schemeName, trace, int64(req.ID), "no-backup")
			return nil, ErrNoBackup
		}
		m.stats.BackupLess++
	}

	m.conns[req.ID] = conn
	m.stats.Accepted++
	m.tracer.ConnEstablish(m.schemeName, trace, int64(req.ID), conn.Primary.Hops())
	return conn, nil
}

// registerBackup walks the backup path sending register packets; on a
// rejection it rolls back and reports failure. Links already carrying one
// of the connection's earlier backups reject the registration (each link
// holds at most one backup per connection), which fails this backup.
func (m *Manager) registerBackup(id ConnID, backup, primary graph.Path, existing []graph.Path) bool {
	for _, prev := range existing {
		if backup.SharedLinks(prev) > 0 {
			return false
		}
	}
	return m.net.DB().RegisterBackupPath(id, backup.Links(), primary.Links()) == nil
}

// Release terminates an active connection, returning its primary resources
// to the free pool and releasing its backup registrations (which lets the
// per-link managers shrink spare resources).
func (m *Manager) Release(id ConnID) error {
	conn, ok := m.conns[id]
	if !ok {
		return fmt.Errorf("drtp: connection %d not active", id)
	}
	db := m.net.DB()
	mustRelease(db.ReleasePrimaryPath(id, conn.Primary.Links()))
	for _, backup := range conn.Backups {
		mustRelease(db.ReleaseBackupPath(id, backup.Links()))
	}
	delete(m.conns, id)
	if len(conn.Backups) > 0 {
		m.tracer.BackupRelease(m.schemeName, conn.trace, int64(id), len(conn.Backups))
	}
	m.tracer.ConnTeardown(m.schemeName, conn.trace, int64(id))
	return nil
}

// mustRelease panics on release/rollback errors: they can only arise from
// bookkeeping corruption, which must not be silently ignored.
func mustRelease(err error) {
	if err != nil {
		panic(fmt.Sprintf("drtp: inconsistent reservation state: %v", err))
	}
}
