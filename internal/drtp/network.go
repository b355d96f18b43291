// Package drtp implements the core of the Dependable Real-Time Protocol:
// DR-connection management over a network whose links carry the paper's
// link-state records (APLV, Conflict Vector, spare resources).
//
// Each dependable real-time (DR-) connection consists of one primary
// channel and one or more backup channels. The Manager routes requests via
// a pluggable Scheme and runs the connection lifecycle of §2.2
// (internal/lifecycle, shared with the distributed routers) directly on
// the link-state database: reserve the primary, register the backups
// carrying the primary's LSET, switch and re-protect on a failure
// (Manager.ApplyEdgeFailure), release on termination. Manager.Evaluate*
// evaluate backup activation with contention on spare resources without
// changing anything.
package drtp

import (
	"fmt"
	"sync"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/lsr"
)

// ConnID identifies a DR-connection. It aliases the lsdb type so IDs flow
// through the link-state layer unchanged.
type ConnID = lsdb.ConnID

// Request asks for a DR-connection between two nodes. All connections
// reserve the network's unit bandwidth (the paper's constant bw-req).
type Request struct {
	ID  ConnID
	Src graph.NodeID
	Dst graph.NodeID
	// MaxHops is the QoS end-to-end delay bound expressed in hops (with
	// identical link delays, delay is proportional to hop count). Both
	// the primary and every backup must respect it; zero means
	// unbounded. A tight bound can make longer conflict-free backups
	// unusable — the paper's D3 example in §2.
	MaxHops int
}

// Route is a primary path plus the backup paths produced by a routing
// scheme. Backups may be empty when the scheme found no backup route;
// the paper's DR-connections carry "one or more" backups (most of the
// evaluation uses exactly one).
type Route struct {
	Primary graph.Path
	Backups []graph.Path
}

// WithBackup is a convenience constructor for the common single-backup
// case; an empty backup yields no backups.
func WithBackup(primary, backup graph.Path) Route {
	r := Route{Primary: primary}
	if !backup.Empty() {
		r.Backups = []graph.Path{backup}
	}
	return r
}

// Scheme selects primary and backup routes for DR-connection requests.
// Implementations include the paper's P-LSR, D-LSR and bounded flooding,
// plus baselines.
type Scheme interface {
	// Name returns a short identifier, e.g. "D-LSR".
	Name() string
	// Route selects routes for req against the network's current state.
	// It returns ErrNoRoute if no feasible primary route exists. A
	// feasible primary with an empty backup is a valid result; the
	// Manager then establishes a backup-less connection.
	Route(net *Network, req Request) (Route, error)
}

// ErrNoRoute indicates no feasible primary route exists for a request.
var ErrNoRoute = fmt.Errorf("drtp: no feasible primary route")

// ErrNoBackup indicates a request was rejected because no backup channel
// could be established (the default backup-required admission policy).
var ErrNoBackup = fmt.Errorf("drtp: no backup channel could be established")

// Network bundles the topology, the link-state database, and the all-pairs
// hop-distance table (used by bounded flooding and diagnostics). It also
// tracks persistently failed links (for destructive failure runs; the
// non-destructive failure sweeps never mark links failed).
type Network struct {
	g  *graph.Graph
	db *lsdb.DB
	// dist is built lazily on first use (distOnce): the all-pairs table is
	// O(nodes²) memory, which at web scale (10k+ nodes) would dwarf the
	// link-state database itself. Only bounded flooding and the QoS hop
	// bound read it; the link-state schemes never pay for it.
	dist     *graph.DistanceTable
	distOnce sync.Once
	// failed is a dense per-link failure flag (indexed by LinkID) so the
	// Dijkstra cost callbacks pay an array read, not a map lookup.
	failed    []bool
	numFailed int
	// snap and sel are the reusable routing buffers: the link-state
	// snapshot and the route selector reading it (which owns the Dijkstra
	// scratch, the avoid set and the conflict-metric vector). A Network —
	// like the Manager above it — serves one establishment or evaluation
	// at a time, so one of each suffices; neither is safe for concurrent
	// use.
	snap lsdb.Snapshot
	sel  lsr.Selector
}

// NewNetwork creates a network where every link has the given capacity and
// every DR-connection reserves unitBW, with backup multiplexing enabled.
func NewNetwork(g *graph.Graph, capacity, unitBW int) (*Network, error) {
	return NewNetworkWithMode(g, capacity, unitBW, lsdb.Multiplexed)
}

// NewNetworkWithMode is NewNetwork with an explicit spare-sizing mode
// (lsdb.Dedicated disables backup multiplexing, for ablation runs).
func NewNetworkWithMode(g *graph.Graph, capacity, unitBW int, mode lsdb.Mode) (*Network, error) {
	db, err := lsdb.NewWithMode(g, capacity, unitBW, mode)
	if err != nil {
		return nil, err
	}
	failed := make([]bool, g.NumLinks())
	return &Network{
		g:      g,
		db:     db,
		failed: failed,
		sel:    lsr.Selector{G: g, Unit: unitBW, Down: failed},
	}, nil
}

// Graph returns the topology.
func (n *Network) Graph() *graph.Graph { return n.g }

// DB returns the link-state database.
func (n *Network) DB() *lsdb.DB { return n.db }

// Distances returns the all-pairs hop-distance table, computing it on
// first use (it costs O(nodes²) memory, so networks that never consult it
// — the link-state schemes without a QoS bound — never build it).
func (n *Network) Distances() *graph.DistanceTable {
	n.distOnce.Do(func() { n.dist = graph.NewDistanceTable(n.g) })
	return n.dist
}

// UnitBW returns the per-connection bandwidth.
func (n *Network) UnitBW() int { return n.db.UnitBW() }

// LinkFailed reports whether link l is marked persistently failed.
func (n *Network) LinkFailed(l graph.LinkID) bool { return n.failed[l] }

// FailLink marks a unidirectional link persistently failed: routing and
// flooding exclude it until RestoreLink.
func (n *Network) FailLink(l graph.LinkID) {
	if !n.failed[l] {
		n.failed[l] = true
		n.numFailed++
	}
}

// FailEdge fails both directions of a physical edge.
func (n *Network) FailEdge(e graph.EdgeID) {
	fwd, bwd := n.g.EdgeLinks(e)
	n.FailLink(fwd)
	n.FailLink(bwd)
}

// RestoreLink repairs a failed link.
func (n *Network) RestoreLink(l graph.LinkID) {
	if n.failed[l] {
		n.failed[l] = false
		n.numFailed--
	}
}

// RestoreEdge repairs both directions of a physical edge.
func (n *Network) RestoreEdge(e graph.EdgeID) {
	fwd, bwd := n.g.EdgeLinks(e)
	n.RestoreLink(fwd)
	n.RestoreLink(bwd)
}

// NumFailedLinks returns the number of links currently marked failed.
func (n *Network) NumFailedLinks() int { return n.numFailed }

// Snapshot refreshes the network's reusable link-state snapshot under one
// database lock and returns it. It stays current only until the next
// reservation; routing schemes and failure evaluation share it.
func (n *Network) Snapshot() *lsdb.Snapshot { return n.db.SnapshotInto(&n.snap) }

// Selector returns the network's route selector — the paper's primary and
// backup selection over the link-state database and the failed-link marks
// — reading a fresh Snapshot, which it also returns. The caller fills the
// selector's Metric before asking it for backups.
func (n *Network) Selector() (*lsr.Selector, *lsdb.Snapshot) {
	snap := n.Snapshot()
	n.sel.Free, n.sel.AvailBackup = snap.Free, snap.AvailBackup
	return &n.sel, snap
}

// RoutePrimary selects a minimum-hop feasible primary route, the primary
// selection used by the link-state schemes.
func (n *Network) RoutePrimary(src, dst graph.NodeID) (graph.Path, error) {
	return n.RoutePrimaryBounded(src, dst, 0)
}

// RoutePrimaryBounded is RoutePrimary under a QoS hop bound (maxHops <= 0
// means unbounded). A route computation costs one database lock and one
// Path allocation.
func (n *Network) RoutePrimaryBounded(src, dst graph.NodeID, maxHops int) (graph.Path, error) {
	sel, _ := n.Selector()
	p := sel.Primary(src, dst, maxHops)
	if p.Empty() {
		return p, ErrNoRoute
	}
	return p, nil
}
