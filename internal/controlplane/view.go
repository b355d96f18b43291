package controlplane

import (
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/router"
)

// netView is the route finder's network-wide link-state snapshot: the
// routers' own view type, fed by the adverts each router mirrors to the
// service (router.Config.Mirrors). Route selection is the view's, i.e.
// internal/lsr's; what is the route finder's own is advert sequencing,
// the synced test and the excluded-node block list. It is not
// goroutine-safe; the owning service serializes access.
type netView struct {
	g     *graph.Graph
	links *router.LinkStateView
	// seqSeen records the highest advert sequence per origin; a node has
	// synced once it appears here.
	seqSeen map[graph.NodeID]uint64
}

func newNetView(g *graph.Graph, capacity, unitBW int, scheme router.BackupScheme) *netView {
	return &netView{
		g:       g,
		links:   router.NewLinkStateView(g, capacity, unitBW, scheme),
		seqSeen: make(map[graph.NodeID]uint64),
	}
}

// apply installs a mirrored advert and returns how many of its link
// summaries were dropped as out of range; stale sequences are not fresh
// and install nothing. An advert from an origin outside the topology is
// dropped whole before its sequence is recorded, so it never counts
// toward synced.
func (v *netView) apply(m proto.LSUpdate) (fresh bool, dropped int) {
	if m.Origin < 0 || int(m.Origin) >= v.g.NumNodes() {
		return false, len(m.Links)
	}
	if m.Seq <= v.seqSeen[m.Origin] {
		return false, 0
	}
	v.seqSeen[m.Origin] = m.Seq
	for _, a := range m.Links {
		if !v.links.Apply(a) {
			dropped++
		}
	}
	return true, dropped
}

// synced reports whether every topology node has mirrored at least one
// advert, i.e. the snapshot covers the whole network.
func (v *netView) synced() bool {
	return len(v.seqSeen) >= v.g.NumNodes()
}

// routes answers one route query: a primary plus up to backups backup
// routes, selected as the routers select their own (router.LinkStateView).
func (v *netView) routes(src, dst graph.NodeID, backups int, excluded map[graph.NodeID]bool) (primary []graph.NodeID, backupRoutes [][]graph.NodeID, reason string) {
	// Drained or dead nodes are hard-excluded from both routes.
	blocked := func(l graph.LinkID) bool {
		lk := v.g.Link(l)
		return excluded[lk.From] || excluded[lk.To]
	}
	p := v.links.RoutePrimary(src, dst, blocked)
	if p.Empty() {
		return nil, nil, "no-route"
	}
	chosen := v.links.Backups(p, nil, backups, blocked)
	if len(chosen) == 0 {
		return nil, nil, "no-backup"
	}
	for _, b := range chosen {
		backupRoutes = append(backupRoutes, b.Nodes(v.g))
	}
	return p.Nodes(v.g), backupRoutes, ""
}
