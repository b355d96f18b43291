package drtp

import (
	"slices"

	"github.com/rtcl/drtp/internal/graph"
)

// AffectedBy exposes affectedBy to the package's tests. The result is the
// evaluation scratch: valid until the next call.
func (m *Manager) AffectedBy(failed []graph.LinkID) []*Connection { return m.affectedBy(failed) }

// ScanAffected is the affected-connection rule affectedBy had before it
// read lsdb's per-link primaries: a scan over every connection's primary.
// It is kept as the oracle the index is checked against.
func (m *Manager) ScanAffected(hits func(graph.Path) bool) []*Connection {
	var affected []*Connection
	for _, c := range m.conns {
		if hits(c.Primary) {
			affected = append(affected, c)
		}
	}
	slices.SortFunc(affected, bySeq)
	return affected
}
