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

// EvaluateUnplanned is the failure evaluation the sweep plan replaced:
// affectedBy's connections, each backup read from the connection and
// tested against the failed links with Path.Contains, and the activation
// slots read from the database per failure. It fills out for the failure
// of every link in failed and traces as the planned evaluation does; it
// is kept as the oracle the plan is checked against.
func (m *Manager) EvaluateUnplanned(out FailureOutcome, failed []graph.LinkID) FailureOutcome {
	affected := m.affectedBy(failed)
	out.Affected = len(affected)
	var slots []int
	link := int(out.Link)
	for _, c := range affected {
		if !c.HasBackup() {
			out.NoBackup++
			m.tracer.ActivationDenied(m.schemeName, c.Trace, int64(c.ID), link, "no-backup")
			continue
		}
		recovered, allHit := false, true
		for _, backup := range c.Backups {
			if slices.ContainsFunc(failed, backup.Contains) {
				continue
			}
			allHit = false
			if slots == nil {
				slots = m.net.DB().SCInto(nil)
			}
			if activate(slots, backup.Links()) {
				recovered = true
				break
			}
		}
		switch {
		case recovered:
			out.Recovered++
			m.tracer.BackupActivate(m.schemeName, c.Trace, int64(c.ID), link, "")
		case allHit:
			out.BackupHit++
			m.tracer.ActivationDenied(m.schemeName, c.Trace, int64(c.ID), link, "backup-hit")
		default:
			out.Contention++
			m.tracer.ActivationDenied(m.schemeName, c.Trace, int64(c.ID), link, "contention")
		}
	}
	return out
}
