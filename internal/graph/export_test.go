package graph

import "math"

// ReferenceShortestPath is ShortestPath by the plain one-ended search: the
// answer the two-ended search must reproduce link for link and bit for bit.
func (s *Scratch) ReferenceShortestPath(g *Graph, src, dst NodeID, cost CostFunc) (Path, float64) {
	dist, prev := s.dijkstra(g, src, dst, cost)
	if math.IsInf(dist[dst], 1) {
		return Path{}, Unreachable
	}
	return s.tracePath(g, prev, src, dst), dist[dst]
}

// SettledByDijkstra counts the nodes the last ShortestPath or
// ReferenceShortestPath on g settled, both directions together. A node is
// settled backward once it carries a label that is no longer queued.
func (s *Scratch) SettledByDijkstra(g *Graph, twoEnded bool) int {
	n := g.NumNodes()
	count := 0
	// The one-ended search resets every node; the two-ended one only those
	// it stamps, and the labels of the others are stale.
	for v, done := range s.settled[:n] {
		if done && (!twoEnded || s.seen[v] == s.gen) {
			count++
		}
	}
	if !twoEnded {
		return count
	}
	for v, d := range s.rdist[:n] {
		if s.seen[v] == s.gen && !math.IsInf(d, 1) {
			count++
		}
	}
	for _, it := range s.rpq {
		if it.dist == s.rdist[it.node] {
			count--
		}
	}
	return count
}

// LabelledByMinHopPath counts the nodes the last MinHopPath reached, both
// directions together.
func (s *Scratch) LabelledByMinHopPath() int { return len(s.queue) + len(s.rqueue) }
