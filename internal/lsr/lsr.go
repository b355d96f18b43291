// Package lsr is the paper's link-state route selection (§3.1–3.2), written
// once: a minimum-hop feasible primary (a breadth-first search), then for
// each backup Dijkstra over
//
//	C_i = Q_i + conflictMetric_i + ε
//
// where Q is a very large constant added when L_i carries the connection's
// primary or an earlier backup, or fails the backup bandwidth test, and
// ε < 1 breaks ties toward shorter backups. P-LSR, D-LSR and the
// conflict-blind baseline differ only in the conflict metric they feed it.
//
// The simulator (drtp.Network + internal/routing) and the routers
// (router.LinkStateView) are state sources: each points a Selector at its
// dense per-link state, fills the request's metric vector, and takes its
// routes from here.
package lsr

import (
	"slices"

	"github.com/rtcl/drtp/internal/graph"
)

const (
	// Q is the paper's "very large constant" penalizing links that overlap
	// the connection's other channels or fail the bandwidth test. It
	// dominates any achievable conflict metric but keeps such links usable
	// as a last resort, exactly as in the paper.
	Q = 1e6
	// Epsilon is the paper's small positive constant (< 1) selecting the
	// shortest route among candidates with equal conflict degree.
	Epsilon = 1e-3
)

// Selector selects routes on one topology. G and Unit are fixed; the
// per-link slices and sets, all indexed by graph.LinkID with one entry per
// link, are the owner's current link state, which the owner refreshes (or
// re-points) before selecting. Both state sources hold it in this one
// form: bandwidths as int32, marks as bitsets. A Selector reuses its
// search buffers across calls, so a selection allocates only the returned
// Path; it is not safe for concurrent use.
type Selector struct {
	G *graph.Graph
	// Unit is the bandwidth every channel reserves.
	Unit int

	// Free is the bandwidth a new primary may take on each link.
	Free []int32
	// AvailBackup is the bandwidth a new backup may count on (spare
	// included: backups multiplex it).
	AvailBackup []int32
	// Down marks links no route may use.
	Down graph.LinkSet
	// Metric is the conflict metric of each link for the request at hand,
	// filled by the owner once the primary is known; nil means zero
	// everywhere (conflict-blind selection).
	Metric []float64

	// Scratch is the path-search work space, exported so the owner's other
	// searches on G share it.
	Scratch graph.Scratch
	avoid   graph.LinkSet
}

// Primary returns the minimum-hop route from src to dst over live links
// with room for one more primary, or the empty path when there is none
// within maxHops (maxHops <= 0 means unbounded; minimum-hop routing
// already minimizes delay, so the bound is a feasibility check).
func (s *Selector) Primary(src, dst graph.NodeID, maxHops int) graph.Path {
	free, down, unit := s.Free, s.Down, int32(s.Unit)
	open := func(l graph.LinkID) bool { return !down.Has(l) && free[l] >= unit }
	p, ok := s.Scratch.MinHopPath(s.G, src, dst, open)
	if !ok || (maxHops > 0 && p.Hops() > maxHops) {
		return graph.Path{}
	}
	return p
}

// NextBackup returns the next backup route for a connection that has the
// given primary and existing backups, or the empty path when it can get
// none. Links of the primary and of existing backups, and links short of
// backup bandwidth, cost an extra Q: a last resort rather than forbidden,
// which is what protects a connection across a bridge. Such an overlapping
// route is acceptable only as the sole protection — with a backup already
// in place it protects nothing the earlier channels do not, so it is
// refused. A positive maxHops bounds the search to the QoS delay bound.
func (s *Selector) NextBackup(primary graph.Path, existing []graph.Path, maxHops int) graph.Path {
	if s.avoid == nil {
		s.avoid = graph.NewLinkSet(s.G.NumLinks())
	}
	avoid := s.avoid
	clear(avoid)
	for _, l := range primary.Links() {
		avoid.Add(l)
	}
	for _, b := range existing {
		for _, l := range b.Links() {
			avoid.Add(l)
		}
	}
	availBackup, down, metric, unit := s.AvailBackup, s.Down, s.Metric, int32(s.Unit)
	cost := func(l graph.LinkID) float64 {
		if down.Has(l) {
			return graph.Unreachable
		}
		c := Epsilon
		if metric != nil {
			c += metric[l]
		}
		if avoid.Has(l) || availBackup[l] < unit {
			c += Q
		}
		return c
	}
	src, dst := primary.Source(s.G), primary.Dest(s.G)
	var (
		b     graph.Path
		total float64
	)
	if maxHops > 0 {
		b, total = s.Scratch.ShortestPathBounded(s.G, src, dst, cost, maxHops)
	} else {
		b, total = s.Scratch.ShortestPath(s.G, src, dst, cost)
	}
	if total == graph.Unreachable {
		return graph.Path{}
	}
	if len(existing) > 0 && (b.SharedLinks(primary) > 0 || b.OverlapsAny(existing)) {
		return graph.Path{}
	}
	return b
}

// Backups is the k-backup rule: NextBackup until a connection with the
// given primary and existing backups holds k, or no further route. It
// returns the routes it added.
func (s *Selector) Backups(primary graph.Path, existing []graph.Path, k, maxHops int) []graph.Path {
	have := slices.Clip(existing)
	for len(have) < k {
		b := s.NextBackup(primary, have, maxHops)
		if b.Empty() {
			break
		}
		have = append(have, b)
	}
	return have[len(existing):]
}
