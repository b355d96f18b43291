package graph

import (
	"math"
	"unsafe"
)

// Scratch holds the reusable working state for repeated shortest-path
// queries on graphs of a bounded size: the Dijkstra dist/prev/settled
// arrays and priority queue of the forward search, the distance array and
// queue of the backward search that meets it, the level arrays and queues
// of the two-ended minimum-hop search, the layered Bellman-Ford tables of
// the hop-bounded variant, and the path-reversal stack. A zero Scratch is
// ready to use; buffers grow on demand and are retained across queries, so
// a caller issuing many queries per topology (the experiment sweep runs
// thousands per cell) allocates only the returned Path per query.
//
// A Scratch is not safe for concurrent use. Results do not depend on what
// it was used for before, nor on how a search went about finding them: a
// reused Scratch answers exactly as a zero one, and every byte of
// downstream sweep output is fixed, because the route a search returns is
// canonical. dist[v] is the minimum, over all paths to v, of the path's
// costs summed left to right in float64 (float addition is monotone, so
// Dijkstra's argument carries over to rounded sums); prev[v] ends as the
// lowest-ID link among the tight ones — those with dist[u]+c == dist[v] —
// whose tail settled before v did; and the live heap items are totally
// ordered by (dist, via), since a link is pushed at most once, when its
// tail settles, so any correct priority queue pops them in the same order.
// None of the three depends on which other nodes were explored, which is
// what lets ShortestPath and MinHopPath leave most of the graph unvisited
// (see searchTo).
type Scratch struct {
	dist    []float64
	prev    []LinkID
	settled []bool
	pq      pqueue
	stack   []LinkID

	// The backward halves of the two-ended searches: distances to dst and
	// their queue for ShortestPath; for MinHopPath both directions' levels
	// (hops + 1, zero for a node not reached) and breadth-first queues.
	rdist         []float64
	rpq           pqueue
	lvl, rlvl     []int32
	queue, rqueue []NodeID

	// seen[v] == gen marks the nodes searchTo's current search has reset;
	// the dist, rdist and settled of any other are left from earlier ones.
	seen []uint32
	gen  uint32

	// Layered tables for the hop-bounded variant; row h holds the best
	// <=h-hop distances.
	bdist [][]float64
	bprev [][]LinkID
}

// NewScratch returns an empty scratch space.
func NewScratch() *Scratch { return &Scratch{} }

// Bytes returns the memory the scratch space holds: each buffer's capacity
// times its element size. It grows with the largest graph searched.
func (s *Scratch) Bytes() int64 {
	n := 8*int64(cap(s.dist)+cap(s.rdist)) + int64(cap(s.settled)) +
		4*int64(cap(s.prev)+cap(s.stack)+cap(s.lvl)+cap(s.rlvl)+cap(s.queue)+cap(s.rqueue)+cap(s.seen)) +
		int64(unsafe.Sizeof(pqItem{}))*int64(cap(s.pq)+cap(s.rpq)) +
		24*int64(cap(s.bdist)+cap(s.bprev))
	for _, row := range s.bdist {
		n += 8 * int64(cap(row))
	}
	for _, row := range s.bprev {
		n += 4 * int64(cap(row))
	}
	return n
}

// ShortestPath runs Dijkstra's algorithm from src to dst under the given
// link-cost function and returns the minimum-cost path and its cost.
// If dst is unreachable it returns an empty path and Unreachable.
//
// Ties are broken deterministically by preferring the link with the lower
// ID at equal cost, so results are reproducible across runs.
func (s *Scratch) ShortestPath(g *Graph, src, dst NodeID, cost CostFunc) (Path, float64) {
	dist, prev := s.searchTo(g, src, dst, cost)
	if math.IsInf(dist[dst], 1) {
		return Path{}, Unreachable
	}
	return s.tracePath(g, prev, src, dst), dist[dst]
}

// ShortestDistancesInto runs Dijkstra from src to all nodes and returns
// the distance vector. The returned slice aliases the scratch space and
// is valid until the next query.
func (s *Scratch) ShortestDistancesInto(g *Graph, src NodeID, cost CostFunc) []float64 {
	dist, _ := s.dijkstra(g, src, InvalidNode, cost)
	return dist
}

// dijkstra computes shortest distances from src into the reusable
// arrays. If stopAt is a valid node, the search may terminate once
// stopAt is settled. prev[n] is the link used to reach n on the
// shortest-path tree (InvalidLink for src/unreached). It is the plain
// one-ended search: the all-destinations form, and the reference the
// tests hold searchTo to.
func (s *Scratch) dijkstra(g *Graph, src, stopAt NodeID, cost CostFunc) (dist []float64, prev []LinkID) {
	n := g.NumNodes()
	s.growNodeArrays(n)
	dist, prev = s.dist[:n], s.prev[:n]
	settled := s.settled[:n]
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = InvalidLink
		settled[i] = false
	}
	dist[src] = 0

	s.pq = append(s.pq[:0], pqItem{node: src, dist: 0, via: InvalidLink})
	for len(s.pq) > 0 {
		item := s.pq.pop()
		u := item.node
		if settled[u] {
			continue
		}
		settled[u] = true
		if u == stopAt {
			return dist, prev
		}
		for _, l := range g.Out(u) {
			c := cost(l)
			if math.IsInf(c, 1) {
				continue
			}
			v := g.Link(l).To
			if settled[v] {
				continue
			}
			nd := dist[u] + c
			if nd < dist[v] || (nd == dist[v] && prev[v] != InvalidLink && l < prev[v]) {
				dist[v] = nd
				prev[v] = l
				s.pq.push(pqItem{node: v, dist: nd, via: l})
			}
		}
	}
	return dist, prev
}

// pruneSlack is the relative margin of searchTo's pruning test. The test
// compares a forward sum plus a backward sum against the cost of a route
// summed in yet another order; the three differ by at most hops·2⁻⁵³
// relative, far inside the margin, so rounding never prunes a node of a
// minimum-cost route. A wide margin costs sharpness only: at a cost near
// lsr.Q it lets through routes one lsr.Epsilon dearer than the best.
const pruneSlack = 1e-9

// searchTo is dijkstra with stopAt = dst, link for link along the route to
// dst, found from both ends. The forward search is dijkstra's loop: the
// same relaxation and tie-break, the same stop when dst is settled. A
// backward search from dst over the in-links takes turns with it until the
// two have met — until no route cheaper than the best one seen so far can
// cross the gap between them — and gives every node v a lower bound lb(v)
// on its distance to dst: rdist[v] once v is settled backward, else the
// least key still queued backward. The forward search then skips every
// relaxation into v at a distance nd with nd + lb(v) above the best route
// seen: no minimum-cost route passes through v that way.
//
// That changes which nodes are explored, never the route. Every node on a
// minimum-cost route passes the test at its true distance, and so does
// every tight predecessor of such a node, which lies on a minimum-cost
// route itself; so along the returned route each dist is the same minimum
// and each prev the lowest-ID tight link out of the same candidates as in
// dijkstra (see Scratch). Nodes off every minimum-cost route hand nothing
// tight to nodes on one, and which of them sit in the queue does not
// reorder the others. dist and prev are meaningful only along that route.
func (s *Scratch) searchTo(g *Graph, src, dst NodeID, cost CostFunc) (dist []float64, prev []LinkID) {
	n := g.NumNodes()
	s.growNodeArrays(n)
	dist, prev = s.dist[:n], s.prev[:n]
	settled, rdist, seen := s.settled[:n], s.rdist[:n], s.seen[:n]
	inf := math.Inf(1)
	// Nothing is reset up front: a node is, on the first relaxation that
	// reaches it, so a search costs what it labels, not the graph's size.
	s.gen++
	if s.gen == 0 { // wrapped: stamps of 2³² searches ago would read as current
		clear(s.seen)
		s.gen++
	}
	gen := s.gen
	seen[src], dist[src], rdist[src], settled[src] = gen, inf, inf, false
	seen[dst], dist[dst], rdist[dst], settled[dst] = gen, inf, inf, false
	// prev is read only where dist is finite, and there it has been written,
	// except at src.
	dist[src], prev[src], rdist[dst] = 0, InvalidLink, 0
	s.pq = append(s.pq[:0], pqItem{node: src, dist: 0, via: InvalidLink})
	s.rpq = append(s.rpq[:0], pqItem{node: dst, dist: 0, via: InvalidLink})

	var (
		// best is the cheapest src–dst route seen so far: a forward label
		// plus a backward label on one node.
		best = inf
		// radius bounds from below the distance to dst of every node not
		// settled backward. min(rdist[v], radius) is then lb(v): a settled
		// node has rdist <= radius, a queued one rdist >= radius.
		radius   = 0.0
		backward = true
	)
	for len(s.pq) > 0 {
		if backward {
			switch {
			case len(s.rpq) == 0:
				// Every node that reaches dst is settled backward. Had src
				// been among them best would be finite.
				if best == inf {
					return dist, prev
				}
				backward, radius = false, inf
			case s.pq[0].dist+s.rpq[0].dist >= best:
				backward, radius = false, s.rpq[0].dist
			case len(s.rpq) < len(s.pq):
				item := s.rpq.pop()
				v := item.node
				if item.dist != rdist[v] {
					continue // superseded by a cheaper label
				}
				radius = item.dist
				for _, l := range g.in[v] {
					c := cost(l)
					if math.IsInf(c, 1) {
						continue
					}
					u := g.links[l].From
					if seen[u] != gen {
						seen[u], dist[u], rdist[u], settled[u] = gen, inf, inf, false
					}
					nd := item.dist + c
					if nd >= rdist[u] {
						continue
					}
					rdist[u] = nd
					s.rpq.push(pqItem{node: u, dist: nd, via: l})
					best = min(best, dist[u]+nd)
				}
				continue
			}
		}

		item := s.pq.pop()
		u := item.node
		if settled[u] {
			continue
		}
		settled[u] = true
		if u == dst {
			return dist, prev
		}
		for _, l := range g.out[u] {
			c := cost(l)
			if math.IsInf(c, 1) {
				continue
			}
			v := g.links[l].To
			if seen[v] != gen {
				seen[v], dist[v], rdist[v], settled[v] = gen, inf, inf, false
			}
			if settled[v] {
				continue
			}
			nd := dist[u] + c
			if nd < dist[v] || (nd == dist[v] && prev[v] != InvalidLink && l < prev[v]) {
				rd := rdist[v]
				best = min(best, nd+rd)
				if nd+min(rd, radius) > best*(1+pruneSlack) {
					continue
				}
				dist[v] = nd
				prev[v] = l
				s.pq.push(pqItem{node: v, dist: nd, via: l})
			}
		}
	}
	return dist, prev
}

// growNodeArrays makes the per-node arrays hold at least n entries.
func (s *Scratch) growNodeArrays(n int) {
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
		s.rdist = make([]float64, n)
		s.prev = make([]LinkID, n)
		s.settled = make([]bool, n)
		s.seen = make([]uint32, n)
		s.lvl = make([]int32, n)
		s.rlvl = make([]int32, n)
		// A node enters a breadth-first queue once.
		s.queue = make([]NodeID, 0, n)
		s.rqueue = make([]NodeID, 0, n)
	}
}

// MinHopPath returns the minimum-hop path from src to dst over the links
// open admits, and whether dst is reachable at all. It is ShortestPath at
// unit cost — the same path, link for link — found breadth first: every
// hop-d node is labelled before any hop-(d+1) node, so the tree link of a
// hop-(d+1) node is the smallest-ID open link into it from a hop-d node,
// whatever order the level is visited in, which is exactly Dijkstra's
// tie-break. The search stops once dst's level is complete.
//
// Like searchTo it works from both ends. Levels are expanded backward from
// dst and forward from src, the smaller frontier first, until a node
// carries both labels; from then on the forward search alone goes on, and
// only into nodes v with hops(src, v) + lb(v) within the fewest hops of any
// route seen, where lb(v) is v's backward level, or one more than the
// backward levels expanded if it has none. Every node a minimum-hop route
// visits passes, and every hop-d node with an open link to a hop-(d+1) node
// of such a route is on one too, so the smallest-ID rule picks among the
// same links.
func (s *Scratch) MinHopPath(g *Graph, src, dst NodeID, open func(LinkID) bool) (Path, bool) {
	n := g.NumNodes()
	s.growNodeArrays(n)
	prev, lvl, rlvl := s.prev[:n], s.lvl[:n], s.rlvl[:n]
	clear(lvl)
	clear(rlvl)
	lvl[src], rlvl[dst] = 1, 1
	queue, rqueue := append(s.queue[:0], src), append(s.rqueue[:0], dst)
	var (
		// queue[lo:] and rqueue[rlo:] are the frontiers, hops and rhops
		// links from their ends.
		lo, rlo     = 0, 0
		hops, rhops int32
		// best is the fewest hops of any src–dst route seen so far.
		best int32 = math.MaxInt32
	)
	for lvl[dst] == 0 && lo < len(queue) {
		if best == math.MaxInt32 && len(rqueue)-rlo <= len(queue)-lo {
			if rlo == len(rqueue) {
				break // every node that reaches dst is labelled, src is not
			}
			hi := len(rqueue)
			for _, v := range rqueue[rlo:hi] {
				for _, l := range g.in[v] {
					u := g.links[l].From
					if rlvl[u] != 0 || !open(l) {
						continue
					}
					rlvl[u] = rhops + 2
					rqueue = append(rqueue, u)
					if lvl[u] != 0 {
						best = min(best, lvl[u]+rhops)
					}
				}
			}
			rlo = hi
			rhops++
			continue
		}
		hi := len(queue)
		for _, u := range queue[lo:hi] {
			for _, l := range g.out[u] {
				v := g.links[l].To
				switch lvl[v] {
				case 0:
					if !open(l) {
						continue
					}
					lb := rhops + 1
					if r := rlvl[v]; r != 0 {
						lb = r - 1
						best = min(best, hops+1+lb)
					}
					if hops+1+lb > best {
						continue
					}
					lvl[v] = hops + 2
					prev[v] = l
					queue = append(queue, v)
				case hops + 2:
					if l < prev[v] && open(l) {
						prev[v] = l
					}
				}
			}
		}
		lo = hi
		hops++
	}
	s.queue, s.rqueue = queue, rqueue
	if lvl[dst] == 0 {
		return Path{}, false
	}
	return s.tracePath(g, prev, src, dst), true
}

// tracePath reconstructs the path to dst using the reusable reversal
// stack; only the final Path's link slice is allocated.
func (s *Scratch) tracePath(g *Graph, prev []LinkID, src, dst NodeID) Path {
	stack := s.stack[:0]
	for at := dst; at != src; {
		l := prev[at]
		if l == InvalidLink {
			s.stack = stack
			return Path{}
		}
		stack = append(stack, l)
		at = g.Link(l).From
	}
	s.stack = stack
	links := make([]LinkID, len(stack))
	for i, l := range stack {
		links[len(stack)-1-i] = l
	}
	return Path{links: links}
}

// pqueue is a binary min-heap of search labels ordered by distance, then
// by the link that gave the label. Live labels never compare equal (see
// Scratch), so the pop order is a property of the labels, not of the heap.
type pqueue []pqItem

func pqLess(a, b pqItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.via < b.via
}

func (q *pqueue) push(it pqItem) {
	*q = append(*q, it)
	q.up(len(*q) - 1)
}

func (q *pqueue) pop() pqItem {
	pq := *q
	n := len(pq) - 1
	pq[0], pq[n] = pq[n], pq[0]
	pq.down(0, n)
	*q = pq[:n]
	return pq[n]
}

func (q pqueue) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !pqLess(q[j], q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (q pqueue) down(i, n int) {
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && pqLess(q[j2], q[j]) {
			j = j2
		}
		if !pqLess(q[j], q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}

// ShortestPathBounded finds the minimum-cost path from src to dst using
// at most maxHops links (a constrained shortest path, used for QoS
// delay-bounded backup routing). It runs a layered Bellman-Ford over hop
// counts in O(maxHops·E). A non-positive maxHops returns no path unless
// src == dst.
func (s *Scratch) ShortestPathBounded(g *Graph, src, dst NodeID, cost CostFunc, maxHops int) (Path, float64) {
	if src == dst {
		return Path{}, 0
	}
	if maxHops <= 0 {
		return Path{}, Unreachable
	}
	n := g.NumNodes()
	dist, prev := s.boundedTables(maxHops+1, n)
	for v := range dist[0] {
		dist[0][v] = math.Inf(1)
		prev[0][v] = InvalidLink
	}
	dist[0][src] = 0

	numLinks := g.NumLinks()
	for h := 1; h <= maxHops; h++ {
		copy(dist[h], dist[h-1])
		copy(prev[h], prev[h-1])
		for id := 0; id < numLinks; id++ {
			link := g.Link(LinkID(id))
			if math.IsInf(dist[h-1][link.From], 1) {
				continue
			}
			c := cost(link.ID)
			if math.IsInf(c, 1) {
				continue
			}
			if nd := dist[h-1][link.From] + c; nd < dist[h][link.To] {
				dist[h][link.To] = nd
				prev[h][link.To] = link.ID
			}
		}
	}
	if math.IsInf(dist[maxHops][dst], 1) {
		return Path{}, Unreachable
	}
	// Reconstruct from the layer where dst's best value first appears.
	stack := s.stack[:0]
	h, at := maxHops, dst
	for at != src {
		for h > 0 && dist[h-1][at] == dist[h][at] {
			h--
		}
		l := prev[h][at]
		if l == InvalidLink {
			s.stack = stack
			return Path{}, Unreachable
		}
		stack = append(stack, l)
		at = g.Link(l).From
		h--
	}
	s.stack = stack
	links := make([]LinkID, len(stack))
	for i, l := range stack {
		links[len(stack)-1-i] = l
	}
	return Path{links: links}, dist[maxHops][dst]
}

// boundedTables returns the layered dist/prev tables with at least rows
// rows of n columns each, reusing retained storage. Row contents are
// stale; ShortestPathBounded fully overwrites every row it reads.
func (s *Scratch) boundedTables(rows, n int) ([][]float64, [][]LinkID) {
	for len(s.bdist) < rows {
		s.bdist = append(s.bdist, nil)
		s.bprev = append(s.bprev, nil)
	}
	for h := 0; h < rows; h++ {
		if cap(s.bdist[h]) < n {
			s.bdist[h] = make([]float64, n)
			s.bprev[h] = make([]LinkID, n)
		}
		s.bdist[h] = s.bdist[h][:n]
		s.bprev[h] = s.bprev[h][:n]
	}
	return s.bdist[:rows], s.bprev[:rows]
}
