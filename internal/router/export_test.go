package router

import (
	"maps"
	"time"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/transport"
)

// HoldDownsPerLSInterval exposes the hold-down's fraction of LSInterval.
const HoldDownsPerLSInterval = holdDownsPerLSInterval

// CV returns the wire form of the view's Conflict Vector for one link,
// re-encoded from its row: (links+7)/8 bytes, bit j%8 of byte j/8 set for
// each j in the row.
func (v *LinkStateView) CV(l graph.LinkID) []byte {
	out := make([]byte, (len(v.norm)+7)/8)
	for _, j := range v.rows.row(int(l)) {
		out[j/8] |= 1 << uint(j%8)
	}
	return out
}

// ViewCV returns the wire form of the Conflict Vector this router's view
// holds for one link.
func (r *Router) ViewCV(l graph.LinkID) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.view.CV(l)
}

// FloodChildren lists, per origin, the neighbours self forwards that
// origin's triggered adverts to on g.
func FloodChildren(g *graph.Graph, self graph.NodeID) [][]graph.NodeID {
	t := newFloodTree(g, self, g.Neighbors(self))
	out := make([][]graph.NodeID, g.NumNodes())
	for o := range out {
		out[o] = t.children(graph.NodeID(o))
	}
	return out
}

// Refresh sends this router's periodic advert now, as the LSInterval tick
// does.
func (r *Router) Refresh() { r.advertise(true) }

// PendingRecords returns how many processed signalling hops the router
// keeps a record of.
func (r *Router) PendingRecords() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sig.Len()
}

// MissHellos runs the hello check as if no neighbour had been heard from
// for one hello interval past the deadline.
func (r *Router) MissHellos() {
	r.checkNeighbors(time.Now().Add(time.Duration(r.cfg.HelloMiss+1) * r.cfg.HelloInterval))
}

// HelloState copies the router's hello stamps and down marks.
func (r *Router) HelloState() (stamps map[graph.NodeID]time.Time, down map[graph.NodeID]bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return maps.Clone(r.lastHello), maps.Clone(r.downNbr)
}

// Restart closes node n's router and starts a new one there with empty
// state, on an endpoint attached anew, as a crashed process comes back.
func (c *Cluster) Restart(n graph.NodeID, cfg Config, at transport.Attacher) error {
	_ = c.routers[n].Close()
	ep, err := at.Attach(n)
	if err != nil {
		return err
	}
	cfg.Node = n
	r, err := New(cfg, ep)
	if err != nil {
		return err
	}
	c.routers[n] = r
	return nil
}
