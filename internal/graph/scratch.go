package graph

import "math"

// Scratch holds the reusable working state for repeated shortest-path
// queries on graphs of a bounded size: the Dijkstra dist/prev/settled
// arrays, the priority queue, the breadth-first queue of the minimum-hop
// search, the layered Bellman-Ford tables of the hop-bounded variant, and
// the path-reversal stack. A zero Scratch is ready to use; buffers grow on
// demand and are retained across queries, so a caller issuing many queries
// per topology (the experiment sweep runs thousands per cell) allocates
// only the returned Path per query.
//
// A Scratch is not safe for concurrent use. Results do not depend on what
// it was used for before: a reused Scratch answers exactly as a zero one
// (the heap operations reproduce container/heap's sift order, so
// tie-breaking, and with it every byte of downstream sweep output, is
// fixed).
type Scratch struct {
	dist    []float64
	prev    []LinkID
	settled []bool
	pq      []pqItem
	queue   []NodeID
	stack   []LinkID

	// Layered tables for the hop-bounded variant; row h holds the best
	// <=h-hop distances.
	bdist [][]float64
	bprev [][]LinkID
}

// NewScratch returns an empty scratch space.
func NewScratch() *Scratch { return &Scratch{} }

// ShortestPath runs Dijkstra's algorithm from src to dst under the given
// link-cost function and returns the minimum-cost path and its cost.
// If dst is unreachable it returns an empty path and Unreachable.
//
// Ties are broken deterministically by preferring the link with the lower
// ID at equal cost, so results are reproducible across runs.
func (s *Scratch) ShortestPath(g *Graph, src, dst NodeID, cost CostFunc) (Path, float64) {
	dist, prev := s.dijkstra(g, src, dst, cost)
	if math.IsInf(dist[dst], 1) {
		return Path{}, Unreachable
	}
	return s.tracePath(g, prev, src, dst), dist[dst]
}

// ShortestDistancesInto runs Dijkstra from src to all nodes and returns
// the distance vector. The returned slice aliases the scratch space and
// is valid until the next query.
//
//drtplint:hotpath
func (s *Scratch) ShortestDistancesInto(g *Graph, src NodeID, cost CostFunc) []float64 {
	dist, _ := s.dijkstra(g, src, InvalidNode, cost)
	return dist
}

// dijkstra computes shortest distances from src into the reusable
// arrays. If stopAt is a valid node, the search may terminate once
// stopAt is settled. prev[n] is the link used to reach n on the
// shortest-path tree (InvalidLink for src/unreached).
//
//drtplint:hotpath
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
		item := s.pqPop()
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
				s.pqPush(pqItem{node: v, dist: nd, via: l})
			}
		}
	}
	return dist, prev
}

// growNodeArrays makes the per-node arrays hold at least n entries.
//
//drtplint:hotpath
func (s *Scratch) growNodeArrays(n int) {
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
		s.prev = make([]LinkID, n)
		s.settled = make([]bool, n)
	}
}

// MinHopPath returns the minimum-hop path from src to dst over the links
// open admits, and whether dst is reachable at all. It is ShortestPath at
// unit cost — the same path, link for link — found breadth first: every
// hop-d node is settled before any hop-(d+1) node, so the tree link of a
// hop-(d+1) node is the smallest-ID open link into it from a hop-d node,
// whatever order the level is visited in, which is exactly Dijkstra's
// tie-break. The search stops once dst's level is complete.
//
//drtplint:hotpath
func (s *Scratch) MinHopPath(g *Graph, src, dst NodeID, open func(LinkID) bool) (Path, bool) {
	n := g.NumNodes()
	s.growNodeArrays(n)
	prev, settled := s.prev[:n], s.settled[:n]
	for i := range prev {
		prev[i] = InvalidLink
	}
	clear(settled)
	settled[src] = true
	queue := append(s.queue[:0], src)
	// queue[lo:hi] is the level being expanded, queue[hi:] the next one.
	for lo, hi := 0, 1; !settled[dst] && lo < hi; lo, hi = hi, len(queue) {
		for _, u := range queue[lo:hi] {
			for _, l := range g.out[u] {
				v := g.links[l].To
				if settled[v] || !open(l) {
					continue
				}
				if prev[v] == InvalidLink {
					prev[v] = l
					queue = append(queue, v)
				} else if l < prev[v] {
					prev[v] = l
				}
			}
		}
		for _, v := range queue[hi:] {
			settled[v] = true
		}
	}
	s.queue = queue
	if !settled[dst] {
		return Path{}, false
	}
	return s.tracePath(g, prev, src, dst), true
}

// tracePath reconstructs the path to dst using the reusable reversal
// stack; only the final Path's link slice is allocated.
//
//drtplint:hotpath
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
	//drtplint:ignore hotalloc the returned Path must own its links; one allocation per query is the documented contract
	links := make([]LinkID, len(stack))
	for i, l := range stack {
		links[len(stack)-1-i] = l
	}
	return Path{links: links}
}

// pqLess mirrors priorityQueue.Less: distance first, link ID as the
// deterministic tie-break.
func pqLess(a, b pqItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.via < b.via
}

// pqPush and pqPop implement the binary heap with container/heap's exact
// sift algorithm (push appends then sifts up; pop swaps the root to the
// end, sifts down over the shortened heap, then removes the last
// element), so the pop order — and the resulting shortest-path trees on
// cost ties — is bit-identical to the heap.Push/heap.Pop path.
//
//drtplint:hotpath
func (s *Scratch) pqPush(it pqItem) {
	s.pq = append(s.pq, it)
	s.pqUp(len(s.pq) - 1)
}

//drtplint:hotpath
func (s *Scratch) pqPop() pqItem {
	n := len(s.pq) - 1
	s.pq[0], s.pq[n] = s.pq[n], s.pq[0]
	s.pqDown(0, n)
	it := s.pq[n]
	s.pq = s.pq[:n]
	return it
}

//drtplint:hotpath
func (s *Scratch) pqUp(j int) {
	pq := s.pq
	for {
		i := (j - 1) / 2 // parent
		if i == j || !pqLess(pq[j], pq[i]) {
			break
		}
		pq[i], pq[j] = pq[j], pq[i]
		j = i
	}
}

//drtplint:hotpath
func (s *Scratch) pqDown(i0, n int) {
	pq := s.pq
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && pqLess(pq[j2], pq[j1]) {
			j = j2
		}
		if !pqLess(pq[j], pq[i]) {
			break
		}
		pq[i], pq[j] = pq[j], pq[i]
		i = j
	}
}

// ShortestPathBounded finds the minimum-cost path from src to dst using
// at most maxHops links (a constrained shortest path, used for QoS
// delay-bounded backup routing). It runs a layered Bellman-Ford over hop
// counts in O(maxHops·E). A non-positive maxHops returns no path unless
// src == dst.
//
//drtplint:hotpath
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
	//drtplint:ignore hotalloc the returned Path must own its links; one allocation per query is the documented contract
	links := make([]LinkID, len(stack))
	for i, l := range stack {
		links[len(stack)-1-i] = l
	}
	return Path{links: links}, dist[maxHops][dst]
}

// boundedTables returns the layered dist/prev tables with at least rows
// rows of n columns each, reusing retained storage. Row contents are
// stale; ShortestPathBounded fully overwrites every row it reads.
//
//drtplint:hotpath
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
