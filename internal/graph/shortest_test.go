package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestShortestPathMinHop(t *testing.T) {
	g := buildDiamond(t)
	p, cost := new(Scratch).ShortestPath(g, 0, 3, UnitCost)
	if cost != 2 || p.Hops() != 2 {
		t.Fatalf("cost=%v hops=%d, want 2,2", cost, p.Hops())
	}
	if p.Source(g) != 0 || p.Dest(g) != 3 {
		t.Fatalf("endpoints %d->%d", p.Source(g), p.Dest(g))
	}
}

func TestShortestPathSameNode(t *testing.T) {
	g := buildDiamond(t)
	p, cost := new(Scratch).ShortestPath(g, 2, 2, UnitCost)
	if cost != 0 || !p.Empty() {
		t.Fatalf("self path cost=%v hops=%d", cost, p.Hops())
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(3)
	if _, err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	p, cost := new(Scratch).ShortestPath(g, 0, 2, UnitCost)
	if !math.IsInf(cost, 1) || !p.Empty() {
		t.Fatalf("unreachable returned cost=%v path=%v", cost, p)
	}
}

func TestShortestPathExcludedLinks(t *testing.T) {
	g := buildDiamond(t)
	l01, _ := g.LinkBetween(0, 1)
	cost := func(l LinkID) float64 {
		if l == l01 {
			return Unreachable
		}
		return 1
	}
	p, c := new(Scratch).ShortestPath(g, 0, 3, cost)
	if c != 2 {
		t.Fatalf("cost = %v, want 2 via 0->2->3", c)
	}
	if p.Contains(l01) {
		t.Fatal("path uses excluded link")
	}
}

func TestShortestPathWeighted(t *testing.T) {
	g := buildDiamond(t)
	l01, _ := g.LinkBetween(0, 1)
	cost := func(l LinkID) float64 {
		if l == l01 {
			return 10
		}
		return 1
	}
	p, c := new(Scratch).ShortestPath(g, 0, 3, cost)
	if c != 2 || p.Contains(l01) {
		t.Fatalf("cost=%v via %s, want cheap route", c, p.Format(g))
	}
}

func TestShortestPathDeterministicTieBreak(t *testing.T) {
	g := buildDiamond(t)
	first, _ := new(Scratch).ShortestPath(g, 0, 3, UnitCost)
	for i := 0; i < 20; i++ {
		p, _ := new(Scratch).ShortestPath(g, 0, 3, UnitCost)
		if p.String() != first.String() {
			t.Fatalf("run %d: path %s differs from %s", i, p.String(), first.String())
		}
	}
}

func TestShortestDistances(t *testing.T) {
	g := buildDiamond(t)
	dist := new(Scratch).ShortestDistancesInto(g, 0, UnitCost)
	want := []float64{0, 1, 1, 2}
	for i, w := range want {
		if dist[i] != w {
			t.Fatalf("dist[%d] = %v, want %v", i, dist[i], w)
		}
	}
}

func TestHopDistances(t *testing.T) {
	g := New(4)
	if _, err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	dist := HopDistances(g, 0)
	want := []int{0, 1, 2, -1}
	for i, w := range want {
		if dist[i] != w {
			t.Fatalf("hop[%d] = %d, want %d", i, dist[i], w)
		}
	}
}

func TestDistanceTable(t *testing.T) {
	g := buildDiamond(t)
	dt := NewDistanceTable(g)
	if dt.Hops(0, 3) != 2 || dt.Hops(3, 0) != 2 || dt.Hops(1, 1) != 0 {
		t.Fatalf("hops: %d %d %d", dt.Hops(0, 3), dt.Hops(3, 0), dt.Hops(1, 1))
	}
	if dt.Diameter() != 2 {
		t.Fatalf("diameter = %d, want 2", dt.Diameter())
	}
	// 12 ordered pairs: eight at distance 1, four at distance 2.
	if got, want := dt.MeanHops(), (8*1.0+4*2.0)/12.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean hops = %v, want %v", got, want)
	}
}

// randomConnectedGraph builds a connected graph with extra random edges,
// used by property tests.
func randomConnectedGraph(r *rand.Rand, n int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		// Spanning tree: attach each node to a random earlier node.
		if _, err := g.AddEdge(NodeID(r.Intn(i)), NodeID(i)); err != nil {
			panic(err)
		}
	}
	extra := r.Intn(2 * n)
	for i := 0; i < extra; i++ {
		u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
		if u == v {
			continue
		}
		_, _ = g.AddEdge(u, v) // duplicates rejected, fine
	}
	return g
}

func TestDijkstraMatchesBellmanFordProperty(t *testing.T) {
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(12)
		g := randomConnectedGraph(r, n)
		costs := make([]float64, g.NumLinks())
		for i := range costs {
			costs[i] = 0.25 + r.Float64()*5
		}
		cost := func(l LinkID) float64 { return costs[l] }
		src := NodeID(r.Intn(n))
		dj := new(Scratch).ShortestDistancesInto(g, src, cost)
		bf := BellmanFordDistances(g, src, cost)
		for i := range dj {
			if math.Abs(dj[i]-bf[i]) > 1e-9 {
				t.Logf("seed %d: node %d dijkstra=%v bellman-ford=%v", seed, i, dj[i], bf[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShortestPathCostMatchesLinkSumProperty(t *testing.T) {
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(12)
		g := randomConnectedGraph(r, n)
		costs := make([]float64, g.NumLinks())
		for i := range costs {
			costs[i] = 0.25 + r.Float64()*5
		}
		cost := func(l LinkID) float64 { return costs[l] }
		src := NodeID(r.Intn(n))
		dst := NodeID(r.Intn(n))
		p, total := new(Scratch).ShortestPath(g, src, dst, cost)
		if src == dst {
			return total == 0 && p.Empty()
		}
		sum := 0.0
		for _, l := range p.Links() {
			sum += cost(l)
		}
		return math.Abs(sum-total) < 1e-9 && p.Source(g) == src && p.Dest(g) == dst
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHopDistanceMatchesUnitDijkstraProperty(t *testing.T) {
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(12)
		g := randomConnectedGraph(r, n)
		src := NodeID(r.Intn(n))
		hops := HopDistances(g, src)
		dj := new(Scratch).ShortestDistancesInto(g, src, UnitCost)
		for i := range hops {
			if float64(hops[i]) != dj[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
