package graph

import "math"

// CostFunc assigns a traversal cost to a link. Costs must be non-negative.
// Return Unreachable to exclude a link entirely.
type CostFunc func(LinkID) float64

// Unreachable marks a link as unusable for a CostFunc.
var Unreachable = math.Inf(1)

// UnitCost assigns cost 1 to every link, yielding min-hop routing.
func UnitCost(LinkID) float64 { return 1 }

type pqItem struct {
	node NodeID
	dist float64
	via  LinkID // link used to reach node; tie-break key
}

// HopDistances returns the BFS hop distance from src to every node, with -1
// for unreachable nodes.
func HopDistances(g *Graph, src NodeID) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, l := range g.Out(u) {
			v := g.Link(l).To
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// DistanceTable holds all-pairs hop distances. dist[i][j] is the minimum
// hop count from node i to node j (-1 if unreachable). It is the substrate
// for the bounded-flooding distance tests.
type DistanceTable struct {
	dist [][]int
}

// NewDistanceTable computes all-pairs hop distances by running BFS from
// every node (O(V·(V+E))).
func NewDistanceTable(g *Graph) *DistanceTable {
	t := &DistanceTable{dist: make([][]int, g.NumNodes())}
	for i := 0; i < g.NumNodes(); i++ {
		t.dist[i] = HopDistances(g, NodeID(i))
	}
	return t
}

// Hops returns the minimum hop count from src to dst (-1 if unreachable).
func (t *DistanceTable) Hops(src, dst NodeID) int {
	return t.dist[src][dst]
}

// Diameter returns the maximum finite hop distance over all pairs.
func (t *DistanceTable) Diameter() int {
	max := 0
	for _, row := range t.dist {
		for _, d := range row {
			if d > max {
				max = d
			}
		}
	}
	return max
}

// MeanHops returns the mean hop distance over all reachable ordered pairs
// of distinct nodes.
func (t *DistanceTable) MeanHops() float64 {
	sum, count := 0, 0
	for i, row := range t.dist {
		for j, d := range row {
			if i == j || d < 0 {
				continue
			}
			sum += d
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count)
}

// BellmanFordDistances computes shortest distances from src by iterative
// relaxation. It exists as an independent reference implementation for
// validating Dijkstra in tests (and mirrors the paper's remark that the
// distance tables may be built with either algorithm).
func BellmanFordDistances(g *Graph, src NodeID, cost CostFunc) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
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
			if nd := dist[l.From] + c; nd < dist[l.To] {
				dist[l.To] = nd
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}
