package drtp

import (
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lifecycle"
)

// RecoveryOutcome summarizes one destructive failure application: unlike
// the non-destructive Evaluate* sweeps, ApplyLinkFailure/ApplyEdgeFailure
// mutate the network — affected connections really switch to their
// backups (or are dropped), and the failed link stays down until
// restored.
type RecoveryOutcome struct {
	// Affected is the number of connections whose active primary crossed
	// the failed component.
	Affected int
	// Switched counts connections promoted onto a backup channel.
	Switched int
	// Dropped counts connections that could not be recovered and were
	// torn down.
	Dropped int
	// BackupsReestablished counts fresh backup channels registered after
	// switching (DRTP step 4, resource reconfiguration), including
	// re-registrations of surviving backups under the new primary.
	BackupsReestablished int
}

// RecoveryLatency records the recovery timeline of one connection after a
// destructive failure, in hops: with identical link delays (the paper's
// setting) every latency component is proportional to a hop count, so hop
// counts are the unit the percentiles are reported in.
type RecoveryLatency struct {
	// Detect is the failure-detection distance: hops from the failed
	// component back to the connection's source along the old primary
	// (the failure report travels upstream before activation can start).
	Detect int
	// Activate is the length of the channel the connection switched to —
	// the activation message traverses it end to end. Zero for drops.
	Activate int
	// Switched reports whether the connection recovered (false: dropped).
	Switched bool
}

// Total returns the end-to-end recovery distance in hops: the upstream
// failure report plus the activation traversal of the new channel.
func (r RecoveryLatency) Total() int { return r.Detect + r.Activate }

// BackupRouter is an optional Scheme capability: computing fresh backup
// routes for an already-established primary. Schemes implementing it let
// the manager restore full protection after a channel switch.
type BackupRouter interface {
	// RouteBackupsFor returns new backup routes for the request's
	// connection given its current primary and surviving backups.
	RouteBackupsFor(net *Network, req Request, primary graph.Path, existing []graph.Path) []graph.Path
}

// ApplyLinkFailure destructively fails one unidirectional link: the link
// is marked down, every affected connection switches to its first
// activatable backup (promoting spare bandwidth to primary, contending
// in establishment order), unrecoverable connections are dropped, and —
// when the scheme supports BackupRouter — switched connections get fresh
// backups registered for their new primaries.
func (m *Manager) ApplyLinkFailure(l graph.LinkID) RecoveryOutcome {
	m.net.FailLink(l)
	m.tracer.LinkFail(-1, int(l))
	return m.applyFailure([]graph.LinkID{l}, int(l))
}

// ApplyEdgeFailure destructively fails both directions of an edge.
func (m *Manager) ApplyEdgeFailure(e graph.EdgeID) RecoveryOutcome {
	m.net.FailEdge(e)
	fwd, bwd := m.net.Graph().EdgeLinks(e)
	m.tracer.LinkFail(-1, int(fwd))
	m.tracer.LinkFail(-1, int(bwd))
	return m.applyFailure([]graph.LinkID{fwd, bwd}, -1)
}

// applyFailure recovers the connections hit by the failed links. The
// affected list is taken before the first switch rewrites any primary.
func (m *Manager) applyFailure(failed []graph.LinkID, link int) RecoveryOutcome {
	var out RecoveryOutcome
	affected := m.affectedBy(failed)
	out.Affected = len(affected)

	for _, c := range affected {
		// The detection distance is fixed by the old primary before any
		// switch rewrites it: hops from the source to the first failed
		// link of the path.
		detect := 0
		if m.collectRecovery {
			for i, l := range c.Primary.Links() {
				if m.net.LinkFailed(l) {
					detect = i
					break
				}
			}
		}
		switched := true
		switch {
		case m.life.Switch(&c.Conn, link):
			out.Switched++
			out.BackupsReestablished += m.life.Reprotect(&c.Conn, m.topUp)
		case m.reactiveRecovery && m.rerouteConnection(c):
			out.Switched++
			m.tracer.BackupActivate(m.schemeName, c.Trace, int64(c.ID), link, "reroute")
		default:
			mustRelease(m.Release(c.ID))
			out.Dropped++
			switched = false
			m.tracer.ActivationDenied(m.schemeName, c.Trace, int64(c.ID), link, "dropped")
		}
		if m.collectRecovery {
			lat := RecoveryLatency{Detect: detect, Switched: switched}
			if switched {
				lat.Activate = c.Primary.Hops() // the promoted/re-routed channel
			}
			m.recovery = append(m.recovery, lat)
		}
	}
	return out
}

// topUp routes fresh backups for a switched connection's new primary
// (DRTP step 4) when the scheme can.
func (m *Manager) topUp(c *lifecycle.Conn) []graph.Path {
	br, ok := m.scheme.(BackupRouter)
	if !ok {
		return nil
	}
	return br.RouteBackupsFor(m.net, Request{ID: c.ID, Src: c.Src, Dst: c.Dst}, c.Primary, c.Backups)
}

// rerouteConnection performs reactive recovery: a fresh primary route is
// reserved from free capacity and the old one released. Links the two
// routes share keep their reservation.
func (m *Manager) rerouteConnection(c *Connection) bool {
	fresh, err := m.net.RoutePrimary(c.Src, c.Dst)
	if err != nil {
		return false
	}
	if m.net.DB().ReservePrimaryPath(c.ID, linksOutside(fresh, c.Primary)) != nil {
		return false
	}
	channels{m}.ReleaseOutside(c.ID, c.Trace, c.Primary, fresh)
	c.Primary = fresh
	return true
}

// linksOutside returns the links of p that q does not traverse, in p's
// order.
func linksOutside(p, q graph.Path) []graph.LinkID {
	var out []graph.LinkID
	for _, l := range p.Links() {
		if !q.Contains(l) {
			out = append(out, l)
		}
	}
	return out
}

// pathAlive reports whether no link of p is marked failed.
func (m *Manager) pathAlive(p graph.Path) bool {
	for _, l := range p.Links() {
		if m.net.LinkFailed(l) {
			return false
		}
	}
	return true
}
