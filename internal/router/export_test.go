package router

import "github.com/rtcl/drtp/internal/graph"

// HoldDownsPerLSInterval exposes the hold-down's fraction of LSInterval.
const HoldDownsPerLSInterval = holdDownsPerLSInterval

// CV returns the wire form of the view's Conflict Vector for one link,
// re-encoded from its row: (links+7)/8 bytes, bit j%8 of byte j/8 set for
// each j in the row.
func (v *LinkStateView) CV(l graph.LinkID) []byte {
	out := make([]byte, (len(v.conflicts)+7)/8)
	for _, j := range v.conflicts[l] {
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

// Capacities of the signalling and tombstone dedup windows.
const (
	MaxSeenSig    = maxSeenSig
	MaxTombstones = maxTombstones
)
