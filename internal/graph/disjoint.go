package graph

import (
	"math"
)

// DisjointPair finds two link-disjoint paths from src to dst minimizing
// their *total* cost, using Bhandari's algorithm: the second search runs
// on a transformed graph where the first path's links are removed and
// their reversals carry negated cost, and interlacing links cancel out.
//
// It returns ok=false when no two link-disjoint paths exist. The returned
// paths are ordered shorter-or-equal first (by cost).
//
// Joint optimization can beat the paper's sequential primary-then-backup
// routing: greedily taking the shortest primary sometimes leaves no
// disjoint backup where a slightly longer primary would admit a cheap
// pair (the classic "trap topology").
func DisjointPair(g *Graph, src, dst NodeID, cost CostFunc) (Path, Path, bool) {
	if src == dst {
		return Path{}, Path{}, false
	}
	var s Scratch
	first, total := s.ShortestPath(g, src, dst, cost)
	if math.IsInf(total, 1) {
		return Path{}, Path{}, false
	}

	onFirst := first.LinkSet()
	reverseOfFirst := make(map[LinkID]float64, len(onFirst))
	for l := range onFirst {
		reverseOfFirst[g.Reverse(l)] = -cost(l)
	}
	modified := func(l LinkID) float64 {
		if _, ok := onFirst[l]; ok {
			return math.Inf(1)
		}
		if c, ok := reverseOfFirst[l]; ok {
			return c
		}
		return cost(l)
	}
	second, ok := bellmanFordPath(g, src, dst, modified)
	if !ok {
		return Path{}, Path{}, false
	}

	// Cancel interlacing links: a link of the first path whose reversal
	// appears on the second disappears from both.
	drop := make(map[LinkID]struct{})
	for _, l := range second.Links() {
		if _, ok := onFirst[g.Reverse(l)]; ok {
			drop[g.Reverse(l)] = struct{}{}
			drop[l] = struct{}{}
		}
	}
	remaining := make(map[LinkID]struct{}, first.Hops()+second.Hops())
	for _, l := range first.Links() {
		if _, gone := drop[l]; !gone {
			remaining[l] = struct{}{}
		}
	}
	for _, l := range second.Links() {
		if _, gone := drop[l]; !gone {
			remaining[l] = struct{}{}
		}
	}

	p1, ok1 := walkPath(g, remaining, src, dst)
	p2, ok2 := walkPath(g, remaining, src, dst)
	if !ok1 || !ok2 {
		return Path{}, Path{}, false
	}
	if pathCost(p1, cost) > pathCost(p2, cost) {
		p1, p2 = p2, p1
	}
	return p1, p2, true
}

// bellmanFordPath finds a shortest path allowing negative link costs (no
// negative cycles arise from Bhandari's transformation). It returns
// ok=false when dst is unreachable.
func bellmanFordPath(g *Graph, src, dst NodeID, cost CostFunc) (Path, bool) {
	n := g.NumNodes()
	dist := make([]float64, n)
	prev := make([]LinkID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = InvalidLink
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for id := 0; id < g.NumLinks(); id++ {
			l := g.Link(LinkID(id))
			c := cost(l.ID)
			if math.IsInf(c, 1) || math.IsInf(dist[l.From], 1) {
				continue
			}
			if nd := dist[l.From] + c; nd < dist[l.To]-1e-12 {
				dist[l.To] = nd
				prev[l.To] = l.ID
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	if math.IsInf(dist[dst], 1) {
		return Path{}, false
	}
	var reversed []LinkID
	for at := dst; at != src; {
		l := prev[at]
		if l == InvalidLink {
			return Path{}, false
		}
		reversed = append(reversed, l)
		at = g.Link(l).From
		if len(reversed) > g.NumLinks() {
			return Path{}, false // defensive: malformed predecessor chain
		}
	}
	links := make([]LinkID, len(reversed))
	for i, l := range reversed {
		links[len(reversed)-1-i] = l
	}
	return Path{links: links}, true
}

// walkPath extracts one src->dst path from the remaining link set,
// consuming its links.
func walkPath(g *Graph, remaining map[LinkID]struct{}, src, dst NodeID) (Path, bool) {
	var links []LinkID
	at := src
	for at != dst {
		found := InvalidLink
		for _, l := range g.Out(at) {
			if _, ok := remaining[l]; ok {
				found = l
				break
			}
		}
		if found == InvalidLink {
			return Path{}, false
		}
		delete(remaining, found)
		links = append(links, found)
		at = g.Link(found).To
		if len(links) > g.NumLinks() {
			return Path{}, false
		}
	}
	return Path{links: links}, true
}

func pathCost(p Path, cost CostFunc) float64 {
	total := 0.0
	for _, l := range p.Links() {
		total += cost(l)
	}
	return total
}
