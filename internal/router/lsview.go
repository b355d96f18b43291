package router

import (
	"math"

	"github.com/rtcl/drtp/internal/bitvec"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/proto"
)

// linkView is the advertised state of one (possibly remote) link.
type linkView struct {
	availPrim   int
	availBackup int
	norm        int
	cv          *bitvec.Vector
}

// LinkStateView is one node's picture of every link in the network,
// assembled from link-state adverts, and the route selection both tiers
// run on it: a router keeps one for the routes it originates, the control
// plane's route finder keeps one fed by mirrored adverts. It holds a
// Conflict Vector per link, links² bits in all — 4.5 MB at 2 000 nodes
// (6 000 links), 112 MB at 10 000 — which is why routers are exercised at
// tens of nodes and the web-scale simulator path reads lsdb directly.
// Not goroutine-safe; the owner serializes access.
type LinkStateView struct {
	g      *graph.Graph
	scheme BackupScheme
	unitBW int
	links  []linkView
}

// NewLinkStateView starts from the optimistic initial view: every link
// empty until adverts arrive.
func NewLinkStateView(g *graph.Graph, capacity, unitBW int, scheme BackupScheme) *LinkStateView {
	v := &LinkStateView{g: g, scheme: scheme, unitBW: unitBW, links: make([]linkView, g.NumLinks())}
	for i := range v.links {
		v.links[i] = linkView{
			availPrim:   capacity,
			availBackup: capacity,
			cv:          bitvec.New(g.NumLinks()),
		}
	}
	return v
}

// Apply installs a link summary, reloading the link's Conflict Vector in
// place so steady-state adverts cost zero allocations. An advert naming a
// link outside the topology — Link arrives as a signed varint off the
// wire — is dropped: Apply reports false and the view is unchanged.
func (v *LinkStateView) Apply(a proto.LinkAdvert) bool {
	if a.Link < 0 || int(a.Link) >= len(v.links) {
		return false
	}
	lv := &v.links[a.Link]
	lv.availPrim = a.AvailPrim
	lv.availBackup = a.AvailBackup
	lv.norm = a.Norm
	lv.cv.SetBytes(a.CV)
	return true
}

// Link reports the view of one link: the bandwidth available to
// primaries, the bandwidth available to backups, and the advertised
// ‖APLV‖₁.
func (v *LinkStateView) Link(l graph.LinkID) (availPrim, availBackup, norm int) {
	lv := &v.links[l]
	return lv.availPrim, lv.availBackup, lv.norm
}

// RoutePrimary computes a minimum-hop route from src to dst over links
// with room for one more primary, never using a link blocked reports
// true for (nil blocks nothing). It returns the empty path when there is
// none.
func (v *LinkStateView) RoutePrimary(src, dst graph.NodeID, blocked func(graph.LinkID) bool) graph.Path {
	cost := func(l graph.LinkID) float64 {
		if v.links[l].availPrim < v.unitBW || (blocked != nil && blocked(l)) {
			return graph.Unreachable
		}
		return 1
	}
	return v.shortest(src, dst, cost)
}

// RouteBackup computes the scheme's backup route for an established
// primary: each link costs its conflict metric — for D-LSR the number of
// the primary's links set in the link's Conflict Vector, for P-LSR the
// advertised ‖APLV‖₁ — plus ε per hop, plus Q when the link is in the
// avoid set (the primary and earlier backups) or lacks backup bandwidth,
// so such links are a last resort rather than forbidden. Links blocked
// reports true for are never used (nil blocks nothing).
func (v *LinkStateView) RouteBackup(src, dst graph.NodeID, primary graph.Path, avoid map[graph.LinkID]struct{}, blocked func(graph.LinkID) bool) graph.Path {
	const (
		q   = 1e6
		eps = 1e-3
	)
	lset := primary.Links()
	cost := func(l graph.LinkID) float64 {
		if blocked != nil && blocked(l) {
			return graph.Unreachable
		}
		lv := &v.links[l]
		c := eps
		switch v.scheme {
		case PLSR:
			c += float64(lv.norm)
		default:
			for _, pl := range lset {
				if lv.cv.Get(int(pl)) {
					c++
				}
			}
		}
		if _, ok := avoid[l]; ok {
			c += q
		} else if lv.availBackup < v.unitBW {
			c += q
		}
		return c
	}
	return v.shortest(src, dst, cost)
}

func (v *LinkStateView) shortest(src, dst graph.NodeID, cost graph.CostFunc) graph.Path {
	p, total := graph.ShortestPath(v.g, src, dst, cost)
	if math.IsInf(total, 1) {
		return graph.Path{}
	}
	return p
}

// localLinks returns the IDs of this node's outgoing links.
func (r *Router) localLinks() []graph.LinkID { return r.g.Out(r.cfg.Node) }

// markDirtyLocked schedules a triggered link-state advertisement.
func (r *Router) markDirtyLocked() { r.dirty = true }

// flushAdverts sends a triggered advertisement if local state changed.
func (r *Router) flushAdverts() {
	r.mu.Lock()
	dirty := r.dirty
	r.dirty = false
	r.mu.Unlock()
	if dirty {
		r.advertise()
	}
}

// advertise floods this node's local link summaries.
func (r *Router) advertise() {
	r.mu.Lock()
	r.mySeq++
	update := proto.LSUpdate{Origin: r.cfg.Node, Seq: r.mySeq}
	for _, l := range r.localLinks() {
		update.Links = append(update.Links, r.advertForLocked(l))
		// Local view mirrors local truth immediately.
		r.view.Apply(update.Links[len(update.Links)-1])
	}
	nbrs := r.g.Neighbors(r.cfg.Node)
	r.mu.Unlock()
	r.tracer.LSUpdate(int(r.cfg.Node), len(update.Links))
	for _, n := range nbrs {
		r.send(n, update)
	}
	for _, m := range r.cfg.Mirrors {
		r.send(m, update)
	}
}

// advertForLocked summarizes one local link. Links to failed neighbors
// advertise zero bandwidth so remote routing excludes them.
// Callers must hold r.mu.
func (r *Router) advertForLocked(l graph.LinkID) proto.LinkAdvert {
	if r.downNbr[r.g.Link(l).To] {
		return proto.LinkAdvert{
			Link: l,
			CV:   make([]byte, (r.g.NumLinks()+7)/8),
		}
	}
	return proto.LinkAdvert{
		Link:        l,
		AvailPrim:   r.db.AvailableForPrimary(l),
		AvailBackup: r.db.AvailableForBackup(l),
		Norm:        r.db.APLVNorm(l),
		// AppendCV writes the wire form straight from the database,
		// skipping the intermediate bitvec.Vector a CV(l).Bytes() chain
		// would allocate.
		CV: r.db.AppendCV(l, nil),
	}
}

// handleLSUpdate installs fresh updates and re-floods them.
func (r *Router) handleLSUpdate(from graph.NodeID, m proto.LSUpdate) {
	if m.Origin == r.cfg.Node {
		return
	}
	r.mu.Lock()
	if m.Seq <= r.seqSeen[m.Origin] {
		r.mu.Unlock()
		return
	}
	r.seqSeen[m.Origin] = m.Seq
	dropped := 0
	for _, a := range m.Links {
		if a.Link < 0 || int(a.Link) >= r.g.NumLinks() {
			dropped++
			continue
		}
		// Never let remote adverts overwrite local truth.
		if r.g.Link(a.Link).From == r.cfg.Node {
			continue
		}
		r.view.Apply(a)
	}
	nbrs := r.g.Neighbors(r.cfg.Node)
	r.mu.Unlock()
	r.tracer.LSUpdateDropped(int(r.cfg.Node), dropped)
	for _, n := range nbrs {
		if n != from {
			r.send(n, m)
		}
	}
}
