package drtp

import (
	"slices"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/rng"
)

// evalScratch holds the buffers failure evaluation reuses across calls:
// the IDs lsdb lists on the failed links, the affected-connection list,
// the plan every evaluation reads, the merged rank list of a two-link
// failure and the per-link activation slots. Sweeps evaluate |E| failures
// back to back, so per-evaluation maps and slices used to dominate the
// allocation profile.
type evalScratch struct {
	ids      []ConnID
	affected []*Connection
	plan     sweepPlan
	identity []int32 // identity[r] = r: the ranks of a plan of affected connections
	merged   []int32
	slots    []int
	avail    []int32 // the reactive evaluation's free bandwidth per link
}

// sweepPlan is what the failures of one sweep read and none of them
// changes. The planned connections are in establishment order, and a
// connection's rank is its index there. For every link it lists the ranks
// whose primary crosses the link, ascending, in CSR form: link l's are
// ranks[linkStart[l]:linkStart[l+1]]. Every connection's backups are
// flattened in preference order: rank r's are backups backupStart[r] up to
// backupStart[r+1], and backup b's links are links[pathStart[b]:pathStart[b+1]].
// base is the activation-slot vector (DB.SCInto), read once per plan on
// the first activation attempt.
type sweepPlan struct {
	conns       []*Connection
	linkStart   []int32
	ranks       []int32
	backupStart []int32
	pathStart   []int32
	links       []graph.LinkID
	base        []int
	baseFilled  bool
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

// planSweep plans every live connection in one pass over the
// establishment order: O(connections × hops), after which a failure costs
// only what it touches. The plan is the evaluation scratch: valid until
// the next plan or Check.
func (m *Manager) planSweep() *sweepPlan {
	p := &m.eval.plan
	p.conns = p.conns[:0]
	for _, c := range m.order {
		if c != nil {
			p.conns = append(p.conns, c)
		}
	}
	p.flatten()
	// linkStart[l+1] counts the primaries on l, then the prefix sums make
	// linkStart[l] where l's ranks begin; filling advances each
	// linkStart[l] to where l's ranks end, and a shift puts it back.
	n := m.net.Graph().NumLinks()
	p.linkStart = resize(p.linkStart, n+1)
	clear(p.linkStart)
	for _, c := range p.conns {
		for _, l := range c.Primary.Links() {
			p.linkStart[l+1]++
		}
	}
	for l := 0; l < n; l++ {
		p.linkStart[l+1] += p.linkStart[l]
	}
	p.ranks = resize(p.ranks, int(p.linkStart[n]))
	for r, c := range p.conns {
		for _, l := range c.Primary.Links() {
			p.ranks[p.linkStart[l]] = int32(r)
			p.linkStart[l]++
		}
	}
	copy(p.linkStart[1:], p.linkStart[:n])
	p.linkStart[0] = 0
	return p
}

// planAffected plans only the connections a failure of the given links
// affects (affectedBy) and returns their ranks, 0 up to their number.
func (m *Manager) planAffected(failed []graph.LinkID) []int32 {
	p := &m.eval.plan
	p.conns = append(p.conns[:0], m.affectedBy(failed)...)
	p.flatten()
	for len(m.eval.identity) < len(p.conns) {
		m.eval.identity = append(m.eval.identity, int32(len(m.eval.identity)))
	}
	return m.eval.identity[:len(p.conns)]
}

// flatten lays the planned connections' backups out in preference order
// and marks the slot baseline stale.
func (p *sweepPlan) flatten() {
	p.backupStart = append(p.backupStart[:0], 0)
	p.pathStart = append(p.pathStart[:0], 0)
	p.links = p.links[:0]
	for _, c := range p.conns {
		for _, b := range c.Backups {
			p.links = append(p.links, b.Links()...)
			p.pathStart = append(p.pathStart, int32(len(p.links)))
		}
		p.backupStart = append(p.backupStart, int32(len(p.pathStart)-1))
	}
	p.baseFilled = false
}

// on returns the ranks whose primary crosses link l, ascending.
func (p *sweepPlan) on(l graph.LinkID) []int32 {
	return p.ranks[p.linkStart[l]:p.linkStart[l+1]]
}

// resize returns s with length n, reallocated only when it is too short.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// mergeRanks merges two ascending rank lists into the scratch, each rank
// once: the connections a failure of both links affects.
func (m *Manager) mergeRanks(a, b []int32) []int32 {
	out := m.eval.merged[:0]
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case b[0] < a[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	out = append(append(out, a...), b...)
	m.eval.merged = out
	return out
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
	failed := []graph.LinkID{l}
	m.evaluate(&out, failed, m.planAffected(failed))
	return out
}

// EvaluateEdgeFailure simulates the failure of physical edge e (both
// directions at once). See EvaluateLinkFailure for the contention model.
func (m *Manager) EvaluateEdgeFailure(e graph.EdgeID) FailureOutcome {
	out := FailureOutcome{Link: graph.InvalidLink, Edge: e}
	fwd, bwd := m.net.Graph().EdgeLinks(e)
	failed := []graph.LinkID{fwd, bwd}
	m.evaluate(&out, failed, m.planAffected(failed))
	return out
}

// evaluate fills out for the failure of every link in failed, over the
// planned connections of the given ranks, which must ascend. It is the
// one evaluation body of the single-failure calls and the sweeps, and
// costs Σ over the ranks of the hops of their backups, plus one copy of
// the plan's slot baseline when any activation is attempted.
func (m *Manager) evaluate(out *FailureOutcome, failed []graph.LinkID, ranks []int32) {
	p := &m.eval.plan
	out.Affected = len(ranks)

	// slots[l] is the remaining activation capacity of link l, copied
	// from the baseline when the first activation is attempted. The
	// evaluation never mutates the database, so one baseline serves every
	// failure of the plan.
	slotsFilled := false
	traced := m.tracer.Enabled()
	for _, r := range ranks {
		first, last := p.backupStart[r], p.backupStart[r+1]
		if first == last {
			out.NoBackup++
			if traced {
				m.traceOutcome(out, p.conns[r], "no-backup")
			}
			continue
		}
		recovered, allHit := false, true
		for b := first; b < last; b++ {
			backup := p.links[p.pathStart[b]:p.pathStart[b+1]]
			if crosses(backup, failed) {
				continue
			}
			allHit = false
			if !slotsFilled {
				m.eval.slots = append(m.eval.slots[:0], p.baseline(m.net)...)
				slotsFilled = true
			}
			if activate(m.eval.slots, backup) {
				recovered = true
				break
			}
		}
		reason := "contention"
		switch {
		case recovered:
			out.Recovered++
			reason = ""
		case allHit:
			out.BackupHit++
			reason = "backup-hit"
		default:
			out.Contention++
		}
		if traced {
			m.traceOutcome(out, p.conns[r], reason)
		}
	}
}

// traceOutcome emits connection c's outcome in the failure out
// describes: an activation when reason is empty, a denial otherwise.
func (m *Manager) traceOutcome(out *FailureOutcome, c *Connection, reason string) {
	if reason == "" {
		m.tracer.BackupActivate(m.schemeName, c.Trace, int64(c.ID), int(out.Link), "")
	} else {
		m.tracer.ActivationDenied(m.schemeName, c.Trace, int64(c.ID), int(out.Link), reason)
	}
}

// baseline returns every link's activation slots, SC = spare/unitBW,
// read from the database on the plan's first call.
func (p *sweepPlan) baseline(net *Network) []int {
	if !p.baseFilled {
		p.base = net.DB().SCInto(p.base)
		p.baseFilled = true
	}
	return p.base
}

// crosses reports whether any of the links is one of the failed ones.
func crosses(links, failed []graph.LinkID) bool {
	for _, l := range links {
		if slices.Contains(failed, l) {
			return true
		}
	}
	return false
}

// activate checks that every link of the backup still has an activation
// slot and, if so, consumes one slot per link.
func activate(slots []int, backup []graph.LinkID) bool {
	for _, l := range backup {
		if slots[l] <= 0 {
			return false
		}
	}
	for _, l := range backup {
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
	m.evaluate(&out, links, m.planAffected(links))
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
	open := func(x graph.LinkID) bool { return x != l && avail[x] >= int32(unit) }
	for _, c := range affected {
		path, ok := sel.Scratch.MinHopPath(g, c.Src, c.Dst, open)
		if !ok {
			out.Contention++
			m.tracer.ActivationDenied(m.schemeName, c.Trace, int64(c.ID), int(l), "no-route")
			continue
		}
		for _, x := range path.Links() {
			avail[x] -= int32(unit)
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
// a backup when the primary is disabled by a single link failure. One plan
// serves the whole sweep, so each failure costs only the connections it
// affects; an edge's two directions merge their rank lists.
func (m *Manager) SweepFailures(model FailureModel) []FailureOutcome {
	g := m.net.Graph()
	p := m.planSweep()
	if model == EdgeFailures {
		out := make([]FailureOutcome, g.NumEdges())
		for e := range out {
			fwd, bwd := g.EdgeLinks(graph.EdgeID(e))
			out[e] = FailureOutcome{Link: graph.InvalidLink, Edge: graph.EdgeID(e)}
			m.evaluate(&out[e], []graph.LinkID{fwd, bwd}, m.mergeRanks(p.on(fwd), p.on(bwd)))
		}
		return out
	}
	out := make([]FailureOutcome, g.NumLinks())
	for l := range out {
		out[l] = FailureOutcome{Link: graph.LinkID(l), Edge: graph.InvalidEdge}
		m.evaluate(&out[l], []graph.LinkID{graph.LinkID(l)}, p.on(graph.LinkID(l)))
	}
	return out
}

// SweepLinkPairFailures evaluates `samples` random simultaneous two-link
// failures drawn deterministically from seed (distinct links, uniform).
// It extends the paper's single-failure model to probe the value of
// multiple backup channels. Like SweepFailures it evaluates every pair
// from one plan.
func (m *Manager) SweepLinkPairFailures(samples int, seed int64) []FailureOutcome {
	n := m.net.Graph().NumLinks()
	if n < 2 || samples <= 0 {
		return nil
	}
	p := m.planSweep()
	src := rng.New(seed)
	out := make([]FailureOutcome, samples)
	for i := range out {
		a := graph.LinkID(src.Intn(n))
		b := graph.LinkID(src.Intn(n - 1))
		if b >= a {
			b++
		}
		out[i] = FailureOutcome{Link: graph.InvalidLink, Edge: graph.InvalidEdge}
		m.evaluate(&out[i], []graph.LinkID{a, b}, m.mergeRanks(p.on(a), p.on(b)))
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
