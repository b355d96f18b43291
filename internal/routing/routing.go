// Package routing implements the paper's link-state routing schemes for
// backup channels (P-LSR and D-LSR) along with baseline schemes used in
// the evaluation (no-backup, conflict-blind min-hop, random).
//
// All link-state schemes share the same primary selection (minimum-hop
// feasible path) and differ only in the link cost assigned when searching
// for the backup route:
//
//	C_i = Q_i + conflictMetric_i + ε
//
// where Q is a very large constant added when the connection's own primary
// traverses L_i or L_i fails the backup bandwidth test, and ε < 1 breaks
// ties toward shorter backups (paper §3.1–3.2).
package routing

import (
	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/rng"
)

const (
	// Q is the paper's "very large constant" penalizing links that overlap
	// the connection's primary or fail the bandwidth test. It dominates
	// any achievable conflict metric but keeps such links usable as a
	// last resort, exactly as in the paper.
	Q = 1e6
	// Epsilon is the paper's small positive constant (< 1) selecting the
	// shortest route among candidates with equal conflict degree.
	Epsilon = 1e-3
)

// BackupCoster produces, for one connection request, the link-cost metric
// a link-state scheme uses to find the backup route. The primary path of
// the connection has already been selected.
type BackupCoster interface {
	// Name returns the scheme identifier.
	Name() string
	// ConflictMetric returns the scheme's estimate of backup conflicts
	// created by putting the backup on link l, given the primary's LSET.
	ConflictMetric(db *lsdb.DB, l graph.LinkID, primary graph.Path) float64
}

// bulkCoster is the batch fast path of a BackupCoster: it fills a dense
// per-link conflict-metric vector up front (one database lock) instead of
// being called once per link from inside the Dijkstra cost callback. A
// nil return means the metric is identically zero. The built-in costers
// implement it; external costers fall back to per-link ConflictMetric.
type bulkCoster interface {
	conflictMetricsInto(db *lsdb.DB, snap *lsdb.Snapshot, primary graph.Path, dst []float64) []float64
}

// LinkState is a drtp.Scheme assembled from a BackupCoster: min-hop
// primary, then Dijkstra over Q/metric/ε costs for each backup. By
// default one backup is routed; WithBackupCount enables the paper's
// "one or more backup channels".
type LinkState struct {
	coster  BackupCoster
	backups int
}

var _ drtp.Scheme = (*LinkState)(nil)

// Option configures a LinkState scheme.
type Option interface {
	apply(*LinkState)
}

type backupCountOption int

func (o backupCountOption) apply(s *LinkState) {
	if o > 0 {
		s.backups = int(o)
	}
}

// WithBackupCount routes k backup channels per connection, each avoiding
// the primary and all earlier backups. Later backups that cannot avoid
// earlier ones are dropped (a link holds at most one backup per
// connection).
func WithBackupCount(k int) Option { return backupCountOption(k) }

// NewLinkState wraps a BackupCoster into a complete routing scheme.
func NewLinkState(coster BackupCoster, opts ...Option) *LinkState {
	s := &LinkState{coster: coster, backups: 1}
	for _, o := range opts {
		o.apply(s)
	}
	return s
}

// Name implements drtp.Scheme.
func (s *LinkState) Name() string { return s.coster.Name() }

// Route implements drtp.Scheme.
func (s *LinkState) Route(net *drtp.Network, req drtp.Request) (drtp.Route, error) {
	primary, err := net.RoutePrimaryBounded(req.Src, req.Dst, req.MaxHops)
	if err != nil {
		return drtp.Route{}, err
	}
	route := drtp.Route{Primary: primary}
	avoid := net.Scratch().AvoidFor(net.Graph().NumLinks())
	for _, l := range primary.Links() {
		avoid[l] = true
	}
	for k := 0; k < s.backups; k++ {
		backup := s.routeBackup(net, primary, req, avoid, req.MaxHops)
		if backup.Empty() {
			break
		}
		// The first backup may overlap the primary as a last resort
		// (the paper's Q semantics, needed on bridges). Additional
		// backups must be fully disjoint from the primary and from each
		// other — an overlapping extra backup protects nothing the
		// earlier channels do not.
		if k > 0 && (backup.SharedLinks(primary) > 0 || backup.OverlapsAny(route.Backups)) {
			break
		}
		route.Backups = append(route.Backups, backup)
		for _, l := range backup.Links() {
			avoid[l] = true
		}
	}
	return route, nil
}

// RouteBackupsFor implements drtp.BackupRouter: it computes fresh backup
// routes for an existing primary (used to restore protection after a
// channel switch), topping the connection up to the scheme's backup
// count.
func (s *LinkState) RouteBackupsFor(net *drtp.Network, req drtp.Request, primary graph.Path, existing []graph.Path) []graph.Path {
	need := s.backups - len(existing)
	if need <= 0 {
		return nil
	}
	avoid := net.Scratch().AvoidFor(net.Graph().NumLinks())
	for _, l := range primary.Links() {
		avoid[l] = true
	}
	for _, b := range existing {
		for _, l := range b.Links() {
			avoid[l] = true
		}
	}
	var out []graph.Path
	for k := 0; k < need; k++ {
		b := s.routeBackup(net, primary, req, avoid, req.MaxHops)
		if b.Empty() {
			break
		}
		// Overlapping routes are acceptable only as the sole protection.
		if len(existing)+len(out) > 0 &&
			(b.SharedLinks(primary) > 0 || b.OverlapsAny(existing) || b.OverlapsAny(out)) {
			break
		}
		out = append(out, b)
		for _, l := range b.Links() {
			avoid[l] = true
		}
	}
	return out
}

var _ drtp.BackupRouter = (*LinkState)(nil)

// routeBackup finds one backup route penalizing the avoid set with Q. A
// positive maxHops constrains the search to the QoS delay bound. Link
// state is read through one snapshot (and, for the built-in costers, one
// dense metric vector), so the Dijkstra cost callback touches no locks.
func (s *LinkState) routeBackup(net *drtp.Network, primary graph.Path, req drtp.Request, avoid []bool, maxHops int) graph.Path {
	db := net.DB()
	unit := net.UnitBW()
	sc := net.Scratch()
	snap := db.SnapshotInto(&sc.Snap)
	var cost graph.CostFunc
	if bc, ok := s.coster.(bulkCoster); ok {
		var metrics []float64
		if ms := bc.conflictMetricsInto(db, snap, primary, sc.Metrics); ms != nil {
			sc.Metrics = ms
			metrics = ms
		}
		cost = func(l graph.LinkID) float64 {
			if net.LinkFailed(l) {
				return graph.Unreachable
			}
			c := Epsilon
			if metrics != nil {
				c += metrics[l]
			}
			if avoid[l] || snap.AvailBackup[l] < unit {
				c += Q
			}
			return c
		}
	} else {
		cost = func(l graph.LinkID) float64 {
			if net.LinkFailed(l) {
				return graph.Unreachable
			}
			c := Epsilon + s.coster.ConflictMetric(db, l, primary)
			if avoid[l] || snap.AvailBackup[l] < unit {
				c += Q
			}
			return c
		}
	}
	var (
		backup graph.Path
		total  float64
	)
	if maxHops > 0 {
		backup, total = sc.Graph.ShortestPathBounded(net.Graph(), req.Src, req.Dst, cost, maxHops)
	} else {
		backup, total = sc.Graph.ShortestPath(net.Graph(), req.Src, req.Dst, cost)
	}
	if total == graph.Unreachable {
		return graph.Path{}
	}
	return backup
}

// PLSR is the probabilistic link-state scheme: the conflict metric is
// ‖APLV_i‖₁, the only per-link scalar P-LSR requires routers to
// disseminate. Minimizing the path sum maximizes the estimated probability
// of successful backup activation (paper eq. 1–3).
type PLSR struct{}

var _ BackupCoster = PLSR{}

// NewPLSR returns the P-LSR scheme.
func NewPLSR(opts ...Option) *LinkState { return NewLinkState(PLSR{}, opts...) }

// Name implements BackupCoster.
func (PLSR) Name() string { return "P-LSR" }

// ConflictMetric implements BackupCoster.
func (PLSR) ConflictMetric(db *lsdb.DB, l graph.LinkID, _ graph.Path) float64 {
	return float64(db.APLVNorm(l))
}

// conflictMetricsInto implements bulkCoster: the norms are already in the
// snapshot, so this just widens them to float64.
//
//drtplint:hotpath
func (PLSR) conflictMetricsInto(_ *lsdb.DB, snap *lsdb.Snapshot, _ graph.Path, dst []float64) []float64 {
	n := len(snap.Norm)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i, v := range snap.Norm {
		dst[i] = float64(v)
	}
	return dst
}

// DLSR is the deterministic link-state scheme: the conflict metric is the
// exact number of the primary's links whose existing backups traverse L_i,
// read from the Conflict Vector: Σ_{L_j ∈ LSET(P_x)} c_{i,j}.
type DLSR struct{}

var _ BackupCoster = DLSR{}

// NewDLSR returns the D-LSR scheme.
func NewDLSR(opts ...Option) *LinkState { return NewLinkState(DLSR{}, opts...) }

// Name implements BackupCoster.
func (DLSR) Name() string { return "D-LSR" }

// ConflictMetric implements BackupCoster.
func (DLSR) ConflictMetric(db *lsdb.DB, l graph.LinkID, primary graph.Path) float64 {
	conflicts := 0
	for _, pl := range primary.Links() {
		if db.CVBit(l, pl) {
			conflicts++
		}
	}
	return float64(conflicts)
}

// conflictMetricsInto implements bulkCoster: one locked pass over the
// database replaces a CVBit call per (link, LSET entry) pair.
//
//drtplint:hotpath
func (DLSR) conflictMetricsInto(db *lsdb.DB, _ *lsdb.Snapshot, primary graph.Path, dst []float64) []float64 {
	return db.ConflictCountsInto(primary.Links(), dst)
}

// MinHopDisjoint is the conflict-blind baseline: the backup is simply the
// shortest feasible path avoiding the primary's links, ignoring APLV/CV
// information entirely. It isolates the value of conflict awareness.
type MinHopDisjoint struct{}

var _ BackupCoster = MinHopDisjoint{}

// NewMinHopDisjoint returns the conflict-blind baseline scheme.
func NewMinHopDisjoint(opts ...Option) *LinkState { return NewLinkState(MinHopDisjoint{}, opts...) }

// Name implements BackupCoster.
func (MinHopDisjoint) Name() string { return "MinHop" }

// ConflictMetric implements BackupCoster.
func (MinHopDisjoint) ConflictMetric(*lsdb.DB, graph.LinkID, graph.Path) float64 {
	return 0
}

// conflictMetricsInto implements bulkCoster: a nil vector means the
// metric is identically zero.
//
//drtplint:hotpath
func (MinHopDisjoint) conflictMetricsInto(*lsdb.DB, *lsdb.Snapshot, graph.Path, []float64) []float64 {
	return nil
}

// NoBackup establishes primary channels only. It is the baseline against
// which the paper defines capacity overhead.
type NoBackup struct{}

var _ drtp.Scheme = NoBackup{}

// NewNoBackup returns the no-backup baseline scheme.
func NewNoBackup() NoBackup { return NoBackup{} }

// Name implements drtp.Scheme.
func (NoBackup) Name() string { return "NoBackup" }

// Route implements drtp.Scheme.
func (NoBackup) Route(net *drtp.Network, req drtp.Request) (drtp.Route, error) {
	primary, err := net.RoutePrimaryBounded(req.Src, req.Dst, req.MaxHops)
	if err != nil {
		return drtp.Route{}, err
	}
	return drtp.Route{Primary: primary}, nil
}

// Random is a randomized baseline: the backup is a feasible
// primary-disjoint path chosen with random per-link jitter, modelling the
// paper's remark that in highly-connected networks "even random selection
// can find a backup route with small conflicts".
type Random struct {
	src    *rng.Source
	jitter []float64
}

var _ drtp.Scheme = (*Random)(nil)

// NewRandom returns the randomized baseline scheme.
func NewRandom(seed int64) *Random {
	return &Random{src: rng.New(seed)}
}

// Name implements drtp.Scheme.
func (*Random) Name() string { return "Random" }

// Route implements drtp.Scheme.
func (r *Random) Route(net *drtp.Network, req drtp.Request) (drtp.Route, error) {
	primary, err := net.RoutePrimaryBounded(req.Src, req.Dst, req.MaxHops)
	if err != nil {
		return drtp.Route{}, err
	}
	db := net.DB()
	unit := net.UnitBW()
	sc := net.Scratch()
	snap := db.SnapshotInto(&sc.Snap)
	n := net.Graph().NumLinks()
	onPrimary := sc.AvoidFor(n)
	for _, l := range primary.Links() {
		onPrimary[l] = true
	}
	if cap(r.jitter) < n {
		r.jitter = make([]float64, n)
	}
	jitter := r.jitter[:n]
	for i := range jitter {
		jitter[i] = r.src.Float64()
	}
	cost := func(l graph.LinkID) float64 {
		if net.LinkFailed(l) {
			return graph.Unreachable
		}
		c := 1 + jitter[l]
		if onPrimary[l] || snap.AvailBackup[l] < unit {
			c += Q
		}
		return c
	}
	var (
		backup graph.Path
		total  float64
	)
	if req.MaxHops > 0 {
		backup, total = sc.Graph.ShortestPathBounded(net.Graph(), req.Src, req.Dst, cost, req.MaxHops)
	} else {
		backup, total = sc.Graph.ShortestPath(net.Graph(), req.Src, req.Dst, cost)
	}
	if total == graph.Unreachable {
		return drtp.Route{Primary: primary}, nil
	}
	return drtp.WithBackup(primary, backup), nil
}
