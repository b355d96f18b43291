// Package routing holds the simulator's routing schemes: the paper's
// link-state schemes for backup channels (P-LSR and D-LSR) along with the
// baselines used in the evaluation (no-backup, conflict-blind min-hop,
// random, joint).
//
// The link-state schemes share one route selection — internal/lsr: a
// minimum-hop feasible primary, then Dijkstra over C_i = Q_i +
// conflictMetric_i + ε for each backup (paper §3.1–3.2) — and differ only
// in the conflict metric they read from the link-state database. This
// package supplies that metric and the backup count; drtp.Network supplies
// the link state.
package routing

import (
	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/lsr"
	"github.com/rtcl/drtp/internal/rng"
)

// metricFiller returns, for the selector to read, scheme s's per-link
// conflict metric — its estimate of the backup conflicts created by
// putting the backup on each link, given the primary's LSET: a column of
// the snapshot as it stands, or s.metric filled for this request. A nil
// return means the metric is identically zero.
type metricFiller func(s *LinkState, db *lsdb.DB, snap *lsdb.Snapshot, lset []graph.LinkID) []float64

// LinkState is a link-state drtp.Scheme: lsr's route selection fed the
// scheme's conflict metric. By default one backup is routed;
// WithBackupCount enables the paper's "one or more backup channels".
// Like the Network it routes on, a LinkState serves one request at a time.
type LinkState struct {
	name    string
	fill    metricFiller
	backups int
	// metric is what a computed metric is written to: never the selector's
	// Metric, which P-LSR leaves pointing at a read-only snapshot column.
	metric []float64
}

var (
	_ drtp.Scheme       = (*LinkState)(nil)
	_ drtp.BackupRouter = (*LinkState)(nil)
)

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

func newLinkState(name string, fill metricFiller, opts []Option) *LinkState {
	s := &LinkState{name: name, fill: fill, backups: 1}
	for _, o := range opts {
		o.apply(s)
	}
	return s
}

// Name implements drtp.Scheme.
func (s *LinkState) Name() string { return s.name }

// Route implements drtp.Scheme. The primary and every backup are selected
// from one link-state snapshot: nothing is reserved in between.
func (s *LinkState) Route(net *drtp.Network, req drtp.Request) (drtp.Route, error) {
	sel, snap := net.Selector()
	primary := sel.Primary(req.Src, req.Dst, req.MaxHops)
	if primary.Empty() {
		return drtp.Route{}, drtp.ErrNoRoute
	}
	return drtp.Route{Primary: primary, Backups: s.topUp(net.DB(), sel, snap, req, primary, nil)}, nil
}

// RouteBackupsFor implements drtp.BackupRouter: it tops a connection with
// the given primary and existing backups up to the scheme's backup count
// and returns the added routes — fresh protection after a channel switch.
func (s *LinkState) RouteBackupsFor(net *drtp.Network, req drtp.Request, primary graph.Path, existing []graph.Path) []graph.Path {
	if len(existing) >= s.backups {
		return nil
	}
	sel, snap := net.Selector()
	return s.topUp(net.DB(), sel, snap, req, primary, existing)
}

// topUp selects backups for the primary from sel, whose snapshot is snap,
// until the connection has the scheme's backup count or no further route,
// and returns the ones it added to existing.
func (s *LinkState) topUp(db *lsdb.DB, sel *lsr.Selector, snap *lsdb.Snapshot, req drtp.Request, primary graph.Path, existing []graph.Path) []graph.Path {
	sel.Metric = s.fill(s, db, snap, primary.Links())
	return sel.Backups(primary, existing, s.backups, req.MaxHops)
}

// NewPLSR returns the probabilistic link-state scheme: the conflict metric
// is ‖APLV_i‖₁, the only per-link scalar P-LSR requires routers to
// disseminate. Minimizing the path sum maximizes the estimated probability
// of successful backup activation (paper eq. 1–3).
func NewPLSR(opts ...Option) *LinkState { return newLinkState("P-LSR", normMetric, opts) }

// normMetric is the snapshot's norm column, read in place.
func normMetric(_ *LinkState, _ *lsdb.DB, snap *lsdb.Snapshot, _ []graph.LinkID) []float64 {
	return snap.Norm
}

// NewDLSR returns the deterministic link-state scheme: the conflict metric
// is the exact number of the primary's links whose existing backups
// traverse L_i, read from the Conflict Vector: Σ_{L_j ∈ LSET(P_x)} c_{i,j}.
func NewDLSR(opts ...Option) *LinkState { return newLinkState("D-LSR", conflictMetric, opts) }

// conflictMetric reads the conflict counts off the database's CV index.
func conflictMetric(s *LinkState, db *lsdb.DB, _ *lsdb.Snapshot, lset []graph.LinkID) []float64 {
	s.metric = db.ConflictCountsInto(lset, s.metric)
	return s.metric
}

// NewMinHopDisjoint returns the conflict-blind baseline scheme: the backup
// is simply the shortest feasible path avoiding the primary's links,
// ignoring APLV/CV information entirely. It isolates the value of conflict
// awareness.
func NewMinHopDisjoint(opts ...Option) *LinkState { return newLinkState("MinHop", noMetric, opts) }

// noMetric is the identically-zero metric.
func noMetric(*LinkState, *lsdb.DB, *lsdb.Snapshot, []graph.LinkID) []float64 { return nil }

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
	src       *rng.Source
	jitter    []float64
	onPrimary []bool
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
	sel, snap := net.Selector()
	primary := sel.Primary(req.Src, req.Dst, req.MaxHops)
	if primary.Empty() {
		return drtp.Route{}, drtp.ErrNoRoute
	}
	unit := net.UnitBW()
	n := net.Graph().NumLinks()
	if cap(r.jitter) < n {
		r.jitter = make([]float64, n)
		r.onPrimary = make([]bool, n)
	}
	jitter, onPrimary := r.jitter[:n], r.onPrimary[:n]
	clear(onPrimary)
	for _, l := range primary.Links() {
		onPrimary[l] = true
	}
	for i := range jitter {
		jitter[i] = r.src.Float64()
	}
	cost := func(l graph.LinkID) float64 {
		if net.LinkFailed(l) {
			return graph.Unreachable
		}
		c := 1 + jitter[l]
		if onPrimary[l] || snap.AvailBackup[l] < unit {
			c += lsr.Q
		}
		return c
	}
	var (
		backup graph.Path
		total  float64
	)
	if req.MaxHops > 0 {
		backup, total = sel.Scratch.ShortestPathBounded(net.Graph(), req.Src, req.Dst, cost, req.MaxHops)
	} else {
		backup, total = sel.Scratch.ShortestPath(net.Graph(), req.Src, req.Dst, cost)
	}
	if total == graph.Unreachable {
		return drtp.Route{Primary: primary}, nil
	}
	return drtp.WithBackup(primary, backup), nil
}
