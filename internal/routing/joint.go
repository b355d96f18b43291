package routing

import (
	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/graph"
)

// Joint routes the primary and backup channels *jointly* as a
// minimum-total-cost link-disjoint pair (Bhandari's algorithm), instead
// of the paper's sequential primary-then-backup selection. Joint routing
// guarantees disjointness whenever two link-disjoint paths exist at all —
// the sequential greedy can trap itself — at the price of ignoring
// backup-conflict information. It serves as an ablation against the
// paper's design.
type Joint struct {
	fallback *LinkState
}

var _ drtp.Scheme = (*Joint)(nil)

// NewJoint returns the joint disjoint-pair routing scheme.
func NewJoint() *Joint {
	return &Joint{fallback: NewMinHopDisjoint()}
}

// Name implements drtp.Scheme.
func (*Joint) Name() string { return "Joint" }

// Route implements drtp.Scheme. Both paths are routed over links that
// could carry a primary channel (the stricter feasibility test, since
// either member of the pair may end up as the primary); when no disjoint
// pair exists the scheme falls back to sequential conflict-blind routing
// so bridges still get a last-resort backup.
func (s *Joint) Route(net *drtp.Network, req drtp.Request) (drtp.Route, error) {
	db := net.DB()
	unit := net.UnitBW()
	cost := func(l graph.LinkID) float64 {
		if net.LinkFailed(l) || db.FreeBW(l) < unit {
			return graph.Unreachable
		}
		return 1
	}
	primary, backup, ok := graph.DisjointPair(net.Graph(), req.Src, req.Dst, cost)
	if !ok {
		return s.fallback.Route(net, req)
	}
	if req.MaxHops > 0 && (primary.Hops() > req.MaxHops || backup.Hops() > req.MaxHops) {
		return s.fallback.Route(net, req)
	}
	return drtp.WithBackup(primary, backup), nil
}
