package drtp

import (
	"errors"
	"fmt"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lifecycle"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/telemetry"
)

// Connection is an established DR-connection: the lifecycle record
// (endpoints, primary, backups in activation-preference order, span
// context) plus its establishment order. Backups is empty when the
// connection has no backup (counts against fault tolerance; only possible
// under the backup-optional admission policy).
type Connection struct {
	lifecycle.Conn
	// seq orders connections by establishment for deterministic
	// activation priority under contention.
	seq int64
	// slot is the connection's index in its manager's establishment
	// order.
	slot int
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

// Manager is the DR-connection manager: it owns admission, resource
// reservation, backup registration and teardown for one network under one
// routing scheme.
type Manager struct {
	net              *Network
	scheme           Scheme
	conns            map[ConnID]*Connection
	nexSeq           int64
	stats            Stats
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
	// order holds the live connections in establishment order, a
	// released one leaving a nil slot (dead counts them) until the slice
	// is compacted.
	order []*Connection
	dead  int
	// eval holds the failure-evaluation scratch buffers reused across
	// Evaluate*Failure calls (see failure.go).
	eval evalScratch
	// life runs the connection lifecycle over the database (channels) and
	// holds the admission policy.
	life lifecycle.Lifecycle
}

// ManagerOption configures a Manager.
type ManagerOption func(*Manager)

// WithOptionalBackup makes the manager admit connections even when no
// backup channel can be established. The default (paper) policy rejects a
// DR-connection request whose backup cannot be set up: a dependable
// connection is a primary plus at least one backup.
func WithOptionalBackup() ManagerOption { return func(m *Manager) { m.life.OptionalBackup = true } }

// WithTelemetry attaches an event tracer to the manager: establishments,
// rejections, backup registrations/releases and failure-recovery
// outcomes are emitted as typed events. A nil tracer keeps the no-op
// default.
func WithTelemetry(tr *telemetry.Tracer) ManagerOption { return func(m *Manager) { m.tracer = tr } }

// WithRecoveryLatency makes the manager record a RecoveryLatency sample
// for every connection hit by a destructive failure (ApplyLinkFailure /
// ApplyEdgeFailure). Off by default: sampling appends to a slice, and the
// steady-state failure paths must stay allocation-free when nobody reads
// the samples. Drain with TakeRecoveryLatencies.
func WithRecoveryLatency() ManagerOption { return func(m *Manager) { m.collectRecovery = true } }

// WithReactiveRecovery makes destructive failure handling fall back to
// re-routing a fresh primary from free capacity when a connection has no
// activatable backup — the reactive recovery of the paper's §1 (modelled
// without its signalling latency and retry contention). Combine with
// WithOptionalBackup and the no-backup scheme for a purely reactive
// baseline.
func WithReactiveRecovery() ManagerOption { return func(m *Manager) { m.reactiveRecovery = true } }

// NewManager creates a manager for the network using the given scheme.
func NewManager(net *Network, scheme Scheme, opts ...ManagerOption) *Manager {
	m := &Manager{
		net:    net,
		scheme: scheme,
		conns:  make(map[ConnID]*Connection),
	}
	for _, o := range opts {
		o(m)
	}
	m.schemeName = scheme.Name()
	m.life.Channels, m.life.Tracer, m.life.Scheme = channels{m}, m.tracer, m.schemeName
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
	for _, c := range m.order {
		if c != nil {
			out = append(out, c)
		}
	}
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
	rec := lifecycle.Conn{ID: req.ID, Src: req.Src, Dst: req.Dst}
	out := m.life.Establish(&rec, func() (graph.Path, []graph.Path, error) {
		route, err := m.scheme.Route(m.net, req)
		if err == nil && route.Primary.Empty() {
			err = ErrNoRoute
		}
		return route.Primary, route.Backups, err
	})
	m.stats.BackupRegisterFailures += int64(out.Failed)
	switch out.Reason {
	case "":
	case "no-backup":
		m.stats.RejectedNoBackup++
		return nil, ErrNoBackup
	default:
		if out.Reason != "signal-timeout" {
			m.stats.Rejected++
		}
		return nil, out.Err
	}
	conn := &Connection{Conn: rec, seq: m.nexSeq, slot: len(m.order)}
	m.nexSeq++
	m.conns[req.ID] = conn
	m.order = append(m.order, conn)
	m.stats.Accepted++
	m.stats.BackupsEstablished += int64(len(conn.Backups))
	if !conn.HasBackup() {
		m.stats.BackupLess++
	}
	return conn, nil
}

// Release terminates an active connection, returning its primary resources
// to the free pool and releasing its backup registrations (which lets the
// per-link managers shrink spare resources).
func (m *Manager) Release(id ConnID) error {
	conn, ok := m.conns[id]
	if !ok {
		return fmt.Errorf("drtp: connection %d not active", id)
	}
	m.life.Release(&conn.Conn, false)
	delete(m.conns, id)
	m.order[conn.slot] = nil
	if m.dead++; 2*m.dead > len(m.order) {
		m.compactOrder()
	}
	return nil
}

// compactOrder drops the released connections' slots from the
// establishment order. It runs once half of the slots are dead, so its
// cost is amortised O(1) per release.
func (m *Manager) compactOrder() {
	live := m.order[:0]
	for _, c := range m.order {
		if c != nil {
			c.slot = len(live)
			live = append(live, c)
		}
	}
	clear(m.order[len(live):])
	m.order, m.dead = live, 0
}

// channels are the Manager's channel operations: each one database
// transition over the whole path, behind the signalling fault model.
type channels struct{ *Manager }

// Reserve implements lifecycle.Channels.
func (m channels) Reserve(id ConnID, trace uint64, p graph.Path) error {
	if !m.signalOK(trace, id, "setup") {
		return ErrSignalTimeout
	}
	if err := m.net.DB().ReservePrimaryPath(id, p.Links()); err != nil {
		return fmt.Errorf("drtp: reserve primary: %w", err)
	}
	return nil
}

// Register implements lifecycle.Channels. A backup crossing a failed link
// is refused before any signalling.
func (m channels) Register(id ConnID, trace uint64, b, primary graph.Path) error {
	if !m.pathAlive(b) {
		return errLinkDown
	}
	if !m.signalOK(trace, id, "setup") {
		return ErrSignalTimeout
	}
	return m.net.DB().RegisterBackupPath(id, b.Links(), primary.Links())
}

// Activate implements lifecycle.Channels: spare slots become primary
// bandwidth link by link (links the old primary already holds keep their
// reservation); contention on any link leaves the backup registered as it
// was.
func (m channels) Activate(id ConnID, trace uint64, b graph.Path) error {
	if !m.pathAlive(b) {
		return errLinkDown
	}
	if !m.signalOK(trace, id, "activate") {
		return ErrSignalTimeout
	}
	return m.net.DB().PromoteBackupPath(id, b.Links())
}

// Release implements lifecycle.Channels.
func (m channels) Release(id ConnID, _ uint64, k proto.ChannelKind, p graph.Path, _ bool) {
	if k == proto.Primary {
		mustRelease(m.net.DB().ReleasePrimaryPath(id, p.Links()))
	} else {
		mustRelease(m.net.DB().ReleaseBackupPath(id, p.Links()))
	}
}

// ReleaseOutside implements lifecycle.Channels.
func (m channels) ReleaseOutside(id ConnID, _ uint64, old, keep graph.Path) {
	mustRelease(m.net.DB().ReleasePrimaryPath(id, linksOutside(old, keep)))
}

// errLinkDown refuses a channel operation on a path crossing a failed link.
var errLinkDown = errors.New("drtp: path crosses a failed link")

// mustRelease panics on release/rollback errors: they can only arise from
// bookkeeping corruption, which must not be silently ignored.
func mustRelease(err error) {
	if err != nil {
		panic(fmt.Sprintf("drtp: inconsistent reservation state: %v", err))
	}
}
