// Package flood implements the paper's third routing scheme: on-demand
// discovery of primary and backup routes by bounded flooding (§4).
//
// To establish a DR-connection the source floods a channel-discovery
// packet (CDP) towards the destination. Propagation is bounded three ways:
//
//   - distance test: a CDP is forwarded to neighbor k only if the
//     minimum-hop route via k can still reach the destination within the
//     source-specified hop-count limit hc_limit = Rho*D + P;
//   - loop-freedom test: never forward to a node already in the CDP's list;
//   - valid-detour test: once a node has seen the connection's CDP at
//     distance min_dist, later copies are dropped unless
//     hc_curr <= Alpha*min_dist + Beta.
//
// A CDP is forwarded over a link only if the link passes the backup
// bandwidth test (capacity - prime >= bw-req); the primary flag tracks
// whether every link so far also passes the primary test
// (capacity - prime - spare >= bw-req). The destination accumulates
// candidate routes in a CRT and picks the shortest flagged route as the
// primary and the minimally-overlapping shortest remainder as the backup.
package flood

import (
	"sort"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/telemetry"
)

// Params are the four flooding-bound parameters. The paper evaluates
// Rho = Alpha = 1 with additive slacks 2 and 0 (the scan's assignment of
// the two slacks to P and Beta is ambiguous) and notes that widening the
// flood further "barely improves the performance"; the default here is
// the measured plateau point Rho = Alpha = 1, P = Beta = 2.
type Params struct {
	// Rho multiplies the source-destination distance in the hop limit.
	Rho float64
	// P is the additive slack in the hop limit: hc_limit = Rho*D + P.
	P int
	// Alpha multiplies min_dist in the valid-detour test.
	Alpha float64
	// Beta is the additive slack in the valid-detour test:
	// hc_curr <= Alpha*min_dist + Beta.
	Beta int
}

// DefaultParams returns the evaluation parameter set (see Params).
func DefaultParams() Params {
	return Params{Rho: 1, P: 2, Alpha: 1, Beta: 2}
}

// Stats counts the work done by the flooding scheme; CDPForwards is the
// routing-overhead measure reported in the evaluation.
type Stats struct {
	// Requests is the number of Route invocations.
	Requests int64
	// CDPForwards is the total number of CDP transmissions (one per link
	// crossed by a CDP copy).
	CDPForwards int64
	// CDPDropsDetour counts copies dropped by the valid-detour test.
	CDPDropsDetour int64
	// CDPDropsHopLimit counts copies discarded by the distance test: the
	// minimum-hop continuation via a neighbor could no longer meet
	// hc_limit. (Loop-freedom and bandwidth suppressions are not counted
	// as drops: the paper's overhead measure is transmissions, and those
	// copies never left the node for a viable route.)
	CDPDropsHopLimit int64
	// Candidates is the total number of routes accumulated in CRTs.
	Candidates int64
	// NoPrimary counts requests whose CRT held no primary-flagged route.
	NoPrimary int64
	// NoBackup counts requests that found a primary but no backup route.
	NoBackup int64
}

// Scheme is the bounded-flooding routing scheme.
type Scheme struct {
	params Params
	stats  Stats
	tracer *telemetry.Tracer
	fs     floodScratch
}

// floodScratch holds the per-scheme buffers one flood reuses from the
// previous one: the traversal-list arena, the pending-connection table,
// the hop queue and the CRT. A scheme routes one request at a time (the
// simulator and manager are single-threaded per cell), so one scratch
// per scheme suffices.
type floodScratch struct {
	// entries is the arena of traversal-list links: each CDP copy's node
	// list is a parent-pointer chain into this arena instead of a fresh
	// slice copy per forward.
	entries []pathEntry
	// minDist is the dense pending-connection table (-1 = not seen).
	minDist []int32
	// nodes reassembles one chain into node order at the destination.
	nodes []graph.NodeID
	crt   []candidate
	queue hopQueue
}

// pathEntry is one link of a CDP traversal list: the node appended and
// the index of the rest of the list (-1 ends the chain).
type pathEntry struct {
	node   graph.NodeID
	parent int32
}

var _ drtp.Scheme = (*Scheme)(nil)

// New creates a bounded-flooding scheme with the given parameters.
func New(params Params) *Scheme {
	return &Scheme{params: params}
}

// NewDefault creates a bounded-flooding scheme with the paper's parameters.
func NewDefault() *Scheme { return New(DefaultParams()) }

// Name implements drtp.Scheme.
func (s *Scheme) Name() string { return "BF" }

// Stats returns a copy of the accumulated counters.
func (s *Scheme) Stats() Stats { return s.stats }

// ResetStats zeroes the counters.
func (s *Scheme) ResetStats() { s.stats = Stats{} }

// SetTracer attaches an event tracer: each flood emits one aggregated
// cdp-forward event (N = CDP transmissions) and, when copies were
// dropped, one cdp-drop event per discarding test ("hop-limit",
// "detour"). A nil tracer disables emission (the default).
func (s *Scheme) SetTracer(tr *telemetry.Tracer) { s.tracer = tr }

// cdp is a channel-discovery packet. The conn-id field of the paper is
// implicit: one flood handles exactly one request, so the pending
// connection tables are scoped to the flood.
type cdp struct {
	hcCurr      int
	primaryFlag bool
	list        int32        // arena index of the traversed-node chain (-1 = empty)
	at          graph.NodeID // node currently holding the packet
	seq         int64        // arrival order tie-breaker
}

// candidate is one CRT entry at the destination.
type candidate struct {
	primaryFlag bool
	hopCount    int
	path        graph.Path
	seq         int64
}

// Route implements drtp.Scheme by flooding a CDP and selecting routes at
// the destination.
func (s *Scheme) Route(net *drtp.Network, req drtp.Request) (drtp.Route, error) {
	s.stats.Requests++
	crt := s.flood(net, req)
	s.stats.Candidates += int64(len(crt))

	primary, rest, ok := selectPrimary(crt)
	if !ok {
		s.stats.NoPrimary++
		return drtp.Route{}, drtp.ErrNoRoute
	}
	backup, ok := selectBackup(net.Graph(), primary, rest)
	if !ok {
		s.stats.NoBackup++
		return drtp.Route{Primary: primary.path}, nil
	}
	return drtp.WithBackup(primary.path, backup.path), nil
}

// RouteBackupsFor implements drtp.BackupRouter: after a channel switch, a
// fresh bounded flood discovers candidate routes and the shortest one
// minimally overlapping the (new) primary becomes the restored backup.
// BF maintains a single backup, so nothing is added when one survives.
func (s *Scheme) RouteBackupsFor(net *drtp.Network, req drtp.Request, primary graph.Path, existing []graph.Path) []graph.Path {
	if len(existing) > 0 {
		return nil
	}
	crt := s.flood(net, req)
	rest := make([]candidate, 0, len(crt))
	for _, c := range crt {
		if c.path.String() == primary.String() {
			continue
		}
		rest = append(rest, c)
	}
	anchor := candidate{path: primary, hopCount: primary.Hops()}
	backup, ok := selectBackup(net.Graph(), anchor, rest)
	if !ok {
		return nil
	}
	return []graph.Path{backup.path}
}

var _ drtp.BackupRouter = (*Scheme)(nil)

// flood simulates the bounded flood of one CDP. Links have identical
// delays in the paper's model, so packets are processed in hop-count
// order (FIFO within a hop), which reproduces the arrival order of an
// event-driven simulation exactly.
func (s *Scheme) flood(net *drtp.Network, req drtp.Request) []candidate {
	if s.tracer.Enabled() {
		trace := telemetry.ConnTrace(s.Name(), int64(req.ID))
		fwd0, hop0, det0 := s.stats.CDPForwards, s.stats.CDPDropsHopLimit, s.stats.CDPDropsDetour
		defer func() {
			if n := s.stats.CDPForwards - fwd0; n > 0 {
				s.tracer.CDPForward(s.Name(), trace, int64(req.ID), int(n))
			}
			if n := s.stats.CDPDropsHopLimit - hop0; n > 0 {
				s.tracer.CDPDrop(s.Name(), trace, int64(req.ID), int(n), "hop-limit")
			}
			if n := s.stats.CDPDropsDetour - det0; n > 0 {
				s.tracer.CDPDrop(s.Name(), trace, int64(req.ID), int(n), "detour")
			}
		}()
	}
	g := net.Graph()
	dist := net.Distances()
	unit := net.UnitBW()

	d := dist.Hops(req.Src, req.Dst)
	if d < 0 {
		return nil
	}
	hcLimit := int(s.params.Rho*float64(d)) + s.params.P
	if req.MaxHops > 0 && req.MaxHops < hcLimit {
		// The QoS delay bound caps how far any channel may stretch, so
		// flooding beyond it is wasted traffic.
		hcLimit = req.MaxHops
	}

	// The flood never mutates the database, so one snapshot serves every
	// bandwidth test of this request.
	snap := net.Snapshot()

	// minDist is the flood-scoped pending-connection table: the shortest
	// hop count at which each node has seen this connection's CDP.
	fs := &s.fs
	minDist := fs.minDistFor(g.NumNodes())
	fs.entries = fs.entries[:0]
	crt := fs.crt[:0]
	var seq int64

	queue := &fs.queue
	queue.reset(hcLimit + 1)
	queue.push(cdp{at: req.Src, primaryFlag: true, list: -1})

	forward := func(m cdp) {
		i := m.at
		for _, l := range g.Out(i) {
			link := g.Link(l)
			k := link.To
			// Distance test: can the minimum-hop continuation via k
			// still meet the hop limit?
			dk := dist.Hops(k, req.Dst)
			if dk < 0 {
				continue
			}
			if m.hcCurr+dk+1 > hcLimit {
				s.stats.CDPDropsHopLimit++
				continue
			}
			// Loop-freedom test.
			if fs.chainContains(m.list, k) {
				continue
			}
			// Failed links carry no CDPs; bandwidth test for the rest.
			if net.LinkFailed(l) || int(snap.AvailBackup[l]) < unit {
				continue
			}
			next := cdp{
				hcCurr:      m.hcCurr + 1,
				primaryFlag: m.primaryFlag && int(snap.Free[l]) >= unit,
				list:        fs.appendNode(m.list, i),
				at:          k,
				seq:         seq,
			}
			seq++
			s.stats.CDPForwards++
			queue.push(next)
		}
	}

	for {
		m, ok := queue.pop()
		if !ok {
			break
		}
		if m.at == req.Dst {
			// Destination: fill a CRT entry with the traversed route.
			nodes := fs.chainNodes(m.list, req.Dst)
			path, err := graph.PathFromNodes(g, nodes)
			if err != nil {
				// Cannot happen: the list records adjacent hops.
				continue
			}
			crt = append(crt, candidate{
				primaryFlag: m.primaryFlag,
				hopCount:    m.hcCurr,
				path:        path,
				seq:         m.seq,
			})
			continue
		}
		if m.at != req.Src {
			// Valid-detour test against this node's earlier sightings.
			if md := minDist[m.at]; md >= 0 {
				if float64(m.hcCurr) > s.params.Alpha*float64(md)+float64(s.params.Beta) {
					s.stats.CDPDropsDetour++
					continue
				}
			} else {
				minDist[m.at] = int32(m.hcCurr)
			}
		}
		forward(m)
	}
	fs.crt = crt
	return crt
}

// minDistFor returns the pending-connection table sized for n nodes with
// every entry reset to "not seen".
func (fs *floodScratch) minDistFor(n int) []int32 {
	if cap(fs.minDist) < n {
		fs.minDist = make([]int32, n)
	}
	md := fs.minDist[:n]
	for i := range md {
		md[i] = -1
	}
	fs.minDist = md
	return md
}

// appendNode extends chain by one node in the arena and returns the new
// chain head. Chains share tails — a CDP forwarded over several links
// costs one entry per copy, not one list copy per copy.
func (fs *floodScratch) appendNode(chain int32, n graph.NodeID) int32 {
	fs.entries = append(fs.entries, pathEntry{node: n, parent: chain})
	return int32(len(fs.entries) - 1)
}

// chainContains reports whether the chain includes node n.
func (fs *floodScratch) chainContains(chain int32, n graph.NodeID) bool {
	for i := chain; i >= 0; {
		e := &fs.entries[i]
		if e.node == n {
			return true
		}
		i = e.parent
	}
	return false
}

// chainNodes reassembles a chain into source-first node order with last
// appended, reusing the scratch node buffer (valid until the next call).
func (fs *floodScratch) chainNodes(chain int32, last graph.NodeID) []graph.NodeID {
	nodes := fs.nodes[:0]
	for i := chain; i >= 0; {
		e := &fs.entries[i]
		nodes = append(nodes, e.node)
		i = e.parent
	}
	for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	nodes = append(nodes, last)
	fs.nodes = nodes
	return nodes
}

// selectPrimary picks the shortest primary-flagged candidate and returns
// the remaining candidates as backup material.
func selectPrimary(crt []candidate) (candidate, []candidate, bool) {
	best := -1
	for i, c := range crt {
		if !c.primaryFlag {
			continue
		}
		if best < 0 || less(c, crt[best]) {
			best = i
		}
	}
	if best < 0 {
		return candidate{}, nil, false
	}
	rest := make([]candidate, 0, len(crt)-1)
	rest = append(rest, crt[:best]...)
	rest = append(rest, crt[best+1:]...)
	return crt[best], rest, true
}

// selectBackup picks, among the remaining candidates, the route that
// minimally overlaps the primary (in shared physical edges) and is
// shortest among those.
func selectBackup(g *graph.Graph, primary candidate, rest []candidate) (candidate, bool) {
	if len(rest) == 0 {
		return candidate{}, false
	}
	type scored struct {
		c       candidate
		overlap int
	}
	all := make([]scored, len(rest))
	for i, c := range rest {
		all[i] = scored{c: c, overlap: c.path.SharedEdges(g, primary.path)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].overlap != all[j].overlap {
			return all[i].overlap < all[j].overlap
		}
		return less(all[i].c, all[j].c)
	})
	return all[0].c, true
}

// less orders candidates by hop count, then by arrival order.
func less(a, b candidate) bool {
	if a.hopCount != b.hopCount {
		return a.hopCount < b.hopCount
	}
	return a.seq < b.seq
}

// hopQueue processes CDPs in hop-count order, FIFO within a hop. With
// identical link delays this reproduces event-driven arrival order. The
// buckets (and their backing arrays) are reused across floods: pop reads
// through a per-bucket head index instead of re-slicing the bucket away.
type hopQueue struct {
	buckets [][]cdp
	heads   []int
	current int
}

// reset empties the queue, keeping bucket capacity, and ensures at least
// maxHops+1 buckets exist.
func (q *hopQueue) reset(maxHops int) {
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
		q.heads[i] = 0
	}
	for len(q.buckets) < maxHops+1 {
		q.buckets = append(q.buckets, nil)
		q.heads = append(q.heads, 0)
	}
	q.current = 0
}

func (q *hopQueue) push(m cdp) {
	for m.hcCurr >= len(q.buckets) {
		q.buckets = append(q.buckets, nil)
		q.heads = append(q.heads, 0)
	}
	q.buckets[m.hcCurr] = append(q.buckets[m.hcCurr], m)
}

func (q *hopQueue) pop() (cdp, bool) {
	for q.current < len(q.buckets) {
		if h := q.heads[q.current]; h < len(q.buckets[q.current]) {
			q.heads[q.current] = h + 1
			return q.buckets[q.current][h], true
		}
		q.current++
	}
	return cdp{}, false
}
