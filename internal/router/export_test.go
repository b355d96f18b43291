package router

import "github.com/rtcl/drtp/internal/graph"

// HoldDownsPerLSInterval exposes the hold-down's fraction of LSInterval.
const HoldDownsPerLSInterval = holdDownsPerLSInterval

// CV returns the wire form of the view's Conflict Vector for one link.
func (v *LinkStateView) CV(l graph.LinkID) []byte { return v.cv[l].Bytes() }

// ViewCV returns the wire form of the Conflict Vector this router's view
// holds for one link.
func (r *Router) ViewCV(l graph.LinkID) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.view.CV(l)
}

// Capacities of the signalling and tombstone dedup windows.
const (
	MaxSeenSig    = maxSeenSig
	MaxTombstones = maxTombstones
)
