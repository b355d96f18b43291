package drtp

import (
	"slices"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/rng"
)

// evalScratch holds the buffers the failure sweeps reuse across
// evaluations: the IDs lsdb lists on the failed links, the
// affected-connection list and the dense per-link activation-slot vector.
// Sweeps evaluate |E| failures back to back, so per-evaluation maps and
// slices used to dominate the allocation profile.
type evalScratch struct {
	ids      []ConnID
	affected []*Connection
	slots    []int
	avail    []int // the reactive evaluation's free bandwidth per link
}

// bySeq orders connections by establishment sequence, the deterministic
// activation priority under contention.
func bySeq(a, b *Connection) int {
	switch {
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

// affectedBy returns the connections whose primary traverses a link of the
// failed component, in establishment order. It costs what the failure
// touches: the database lists the primaries on each failed link, so no
// other connection is looked at. An ID this manager does not own (another
// user of Network.DB()) is skipped; a primary crossing two failed links is
// listed twice and kept once. The slice is the evaluation scratch: valid
// until the next call.
func (m *Manager) affectedBy(failed []graph.LinkID) []*Connection {
	db := m.net.DB()
	ids := m.eval.ids[:0]
	for _, l := range failed {
		ids = db.AppendPrimariesOn(ids, l)
	}
	m.eval.ids = ids
	affected := m.eval.affected[:0]
	for _, id := range ids {
		if c, ok := m.conns[id]; ok {
			affected = append(affected, c)
		}
	}
	slices.SortFunc(affected, bySeq)
	affected = slices.Compact(affected)
	m.eval.affected = affected
	return affected
}

// FailureModel selects the granularity of simulated failures.
type FailureModel int

const (
	// LinkFailures fails one unidirectional link at a time, the paper's
	// model ("only a single link can fail between two successive
	// recovery actions", with links counted unidirectionally).
	LinkFailures FailureModel = iota + 1
	// EdgeFailures fails a physical edge, taking down both directions at
	// once (e.g. a fiber cut). A stricter model than the paper's.
	EdgeFailures
)

// String returns a short identifier for the model.
func (m FailureModel) String() string {
	switch m {
	case LinkFailures:
		return "link"
	case EdgeFailures:
		return "edge"
	default:
		return "unknown"
	}
}

// FailureOutcome summarizes recovery from one simulated failure.
type FailureOutcome struct {
	// Link is the failed link under LinkFailures (InvalidLink otherwise).
	Link graph.LinkID
	// Edge is the failed edge under EdgeFailures (InvalidEdge otherwise).
	Edge graph.EdgeID
	// Affected is the number of active connections whose primary channel
	// traverses the failed component.
	Affected int
	// Recovered is the number of affected connections whose backup was
	// activated successfully.
	Recovered int
	// NoBackup counts affected connections without a backup channel.
	NoBackup int
	// BackupHit counts affected connections whose backup also traverses
	// the failed component and therefore cannot be activated.
	BackupHit int
	// Contention counts affected connections whose backup activation
	// failed because a link along the backup ran out of spare capacity
	// (conflicting backups multiplexed on the same spare resources).
	Contention int
}

// EvaluateLinkFailure simulates the failure of unidirectional link l and
// computes which affected connections could activate their backups,
// modelling contention on spare resources: each link grants at most
// SC = spare/unitBW simultaneous activations, in connection-establishment
// order. The evaluation is non-destructive.
func (m *Manager) EvaluateLinkFailure(l graph.LinkID) FailureOutcome {
	out := FailureOutcome{Link: l, Edge: graph.InvalidEdge}
	m.evaluateFailure(&out, []graph.LinkID{l})
	return out
}

// EvaluateEdgeFailure simulates the failure of physical edge e (both
// directions at once). See EvaluateLinkFailure for the contention model.
func (m *Manager) EvaluateEdgeFailure(e graph.EdgeID) FailureOutcome {
	out := FailureOutcome{Link: graph.InvalidLink, Edge: e}
	fwd, bwd := m.net.Graph().EdgeLinks(e)
	m.evaluateFailure(&out, []graph.LinkID{fwd, bwd})
	return out
}

// evaluateFailure fills out for the failure of every link in failed. It
// costs Σ over the failed links of the primaries on it × the hops of their
// backups, plus one SCInto when any activation is attempted.
func (m *Manager) evaluateFailure(out *FailureOutcome, failed []graph.LinkID) {
	db := m.net.DB()

	affected := m.affectedBy(failed)
	out.Affected = len(affected)

	// slots[l] is the remaining activation capacity of link l, filled from
	// the spare resources when the first activation is attempted. The
	// evaluation never mutates the database, so one snapshot serves the
	// whole failure.
	slotsFilled := false
	link := int(out.Link)
	for _, c := range affected {
		if !c.HasBackup() {
			out.NoBackup++
			m.tracer.ActivationDenied(m.schemeName, c.Trace, int64(c.ID), link, "no-backup")
			continue
		}
		// Try the connection's backups in preference order; a backup
		// crossing the failed component cannot be activated, and one
		// without spare slots on every link loses to contention.
		recovered, allHit := false, true
		for _, backup := range c.Backups {
			if slices.ContainsFunc(failed, backup.Contains) {
				continue
			}
			allHit = false
			if !slotsFilled {
				m.eval.slots = db.SCInto(m.eval.slots)
				slotsFilled = true
			}
			if activate(m.eval.slots, backup) {
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
}

// activate checks that every link of the backup still has an activation
// slot and, if so, consumes one slot per link.
func activate(slots []int, backup graph.Path) bool {
	links := backup.Links()
	for _, l := range links {
		if slots[l] <= 0 {
			return false
		}
	}
	for _, l := range links {
		slots[l]--
	}
	return true
}

// EvaluateMultiLinkFailure simulates the simultaneous failure of several
// unidirectional links — beyond the paper's single-failure model; this is
// where connections with more than one backup channel earn their keep.
func (m *Manager) EvaluateMultiLinkFailure(links []graph.LinkID) FailureOutcome {
	out := FailureOutcome{Link: graph.InvalidLink, Edge: graph.InvalidEdge}
	if len(links) == 1 {
		out.Link = links[0]
	}
	m.evaluateFailure(&out, links)
	return out
}

// EvaluateLinkFailureReactive evaluates recovery from a link failure
// under a *reactive* policy (the paper's §1 alternative: no resources
// reserved a priori): each affected connection attempts to establish a
// fresh route that avoids the failed link using only currently free
// bandwidth, in establishment order. Recovered counts successful
// re-routes; Contention counts connections for which no feasible
// alternative route remained. The evaluation is non-destructive and
// optimistic for the reactive scheme (no signalling latency, no retry
// collisions — the effects the paper cites as its real-world drawbacks).
func (m *Manager) EvaluateLinkFailureReactive(l graph.LinkID) FailureOutcome {
	out := FailureOutcome{Link: l, Edge: graph.InvalidEdge}
	g := m.net.Graph()
	unit := m.net.UnitBW()
	sel, snap := m.net.Selector()

	affected := m.affectedBy([]graph.LinkID{l})
	out.Affected = len(affected)

	// avail[x] is the remaining free bandwidth of link x during this
	// recovery storm, snapshotted once up front (the evaluation itself
	// never touches the database) and drawn down as re-routes land — in a
	// copy: a Snapshot is read-only to its holders.
	avail := append(m.eval.avail[:0], snap.Free...)
	m.eval.avail = avail
	for _, c := range affected {
		cost := func(x graph.LinkID) float64 {
			if x == l || avail[x] < unit {
				return graph.Unreachable
			}
			return 1
		}
		path, total := sel.Scratch.ShortestPath(g, c.Src, c.Dst, cost)
		if total == graph.Unreachable {
			out.Contention++
			m.tracer.ActivationDenied(m.schemeName, c.Trace, int64(c.ID), int(l), "no-route")
			continue
		}
		for _, x := range path.Links() {
			avail[x] -= unit
		}
		out.Recovered++
		m.tracer.BackupActivate(m.schemeName, c.Trace, int64(c.ID), int(l), "reactive")
	}
	return out
}

// SweepFailuresReactive evaluates every single-link failure under the
// reactive recovery policy.
func (m *Manager) SweepFailuresReactive() []FailureOutcome {
	g := m.net.Graph()
	out := make([]FailureOutcome, 0, g.NumLinks())
	for l := 0; l < g.NumLinks(); l++ {
		out = append(out, m.EvaluateLinkFailureReactive(graph.LinkID(l)))
	}
	return out
}

// SweepFailures evaluates every possible single failure under the given
// model and returns the per-failure outcomes. Summing outcomes weighted
// by Affected yields the paper's P_act-bk, the probability of activating
// a backup when the primary is disabled by a single link failure.
func (m *Manager) SweepFailures(model FailureModel) []FailureOutcome {
	g := m.net.Graph()
	switch model {
	case EdgeFailures:
		out := make([]FailureOutcome, 0, g.NumEdges())
		for e := 0; e < g.NumEdges(); e++ {
			out = append(out, m.EvaluateEdgeFailure(graph.EdgeID(e)))
		}
		return out
	default:
		out := make([]FailureOutcome, 0, g.NumLinks())
		for l := 0; l < g.NumLinks(); l++ {
			out = append(out, m.EvaluateLinkFailure(graph.LinkID(l)))
		}
		return out
	}
}

// SweepLinkPairFailures evaluates `samples` random simultaneous two-link
// failures drawn deterministically from seed (distinct links, uniform).
// It extends the paper's single-failure model to probe the value of
// multiple backup channels.
func (m *Manager) SweepLinkPairFailures(samples int, seed int64) []FailureOutcome {
	n := m.net.Graph().NumLinks()
	if n < 2 || samples <= 0 {
		return nil
	}
	src := rng.New(seed)
	out := make([]FailureOutcome, 0, samples)
	for i := 0; i < samples; i++ {
		a := graph.LinkID(src.Intn(n))
		b := graph.LinkID(src.Intn(n - 1))
		if b >= a {
			b++
		}
		out = append(out, m.EvaluateMultiLinkFailure([]graph.LinkID{a, b}))
	}
	return out
}

// FaultTolerance aggregates outcomes into P_act-bk = Σ recovered / Σ
// affected. The second return value is false when no connection was
// affected by any evaluated failure (P_act-bk is then undefined).
func FaultTolerance(outcomes []FailureOutcome) (float64, bool) {
	affected, recovered := 0, 0
	for _, o := range outcomes {
		affected += o.Affected
		recovered += o.Recovered
	}
	if affected == 0 {
		return 0, false
	}
	return float64(recovered) / float64(affected), true
}
