package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDisjointPairDiamond(t *testing.T) {
	g := buildDiamond(t)
	p1, p2, ok := DisjointPair(g, 0, 3, UnitCost)
	if !ok {
		t.Fatal("no pair found on the diamond")
	}
	if p1.Hops() != 2 || p2.Hops() != 2 {
		t.Fatalf("hops = %d,%d", p1.Hops(), p2.Hops())
	}
	if p1.SharedLinks(p2) != 0 {
		t.Fatal("pair not disjoint")
	}
}

func TestDisjointPairNoneOnLine(t *testing.T) {
	g := New(3)
	if _, err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := DisjointPair(g, 0, 2, UnitCost); ok {
		t.Fatal("pair reported on a line graph")
	}
	if _, _, ok := DisjointPair(g, 0, 0, UnitCost); ok {
		t.Fatal("pair reported for src == dst")
	}
}

// TestDisjointPairTrap is the classic case where greedy sequential routing
// fails but joint routing succeeds:
//
//	0 -- 1 -- 3      plus chords 0-2, 2-3, 1-2
//
// The shortest path 0-1-3 eats links that leave no disjoint second path
// ... construct the standard trap: nodes 0..4 with
// 0-1, 1-4 (short primary), 0-2, 2-3, 3-4 (long detour), 1-3 (the trap
// chord). Sequential: primary 0-1-4; a disjoint backup 0-2-3-4 exists, so
// use a sharper trap: make the shortest path 0-1-3-4 via cheap links and
// verify Bhandari still finds two paths by rerouting around node 1.
func TestDisjointPairTrap(t *testing.T) {
	g := New(5)
	edges := [][2]NodeID{{0, 1}, {1, 3}, {3, 4}, {0, 2}, {2, 3}, {1, 2}}
	for _, e := range edges {
		if _, err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	// Costs: 0-1, 1-3, 3-4 are cheap (shortest path crosses the 3-4
	// bridge). Only one link enters 4, so no disjoint pair to 4 exists.
	if _, _, ok := DisjointPair(g, 0, 4, UnitCost); ok {
		t.Fatal("found a pair across the 3-4 bridge")
	}
	// To node 3 the trap matters: shortest is 0-1-3; the second path
	// must weave through 0-2-3, with Bhandari detangling the 1-2 chord
	// if the first path grabbed it.
	p1, p2, ok := DisjointPair(g, 0, 3, UnitCost)
	if !ok {
		t.Fatal("no pair to node 3")
	}
	if p1.SharedLinks(p2) != 0 {
		t.Fatal("pair overlaps")
	}
	if p1.Hops()+p2.Hops() != 4 {
		t.Fatalf("total hops = %d, want 4", p1.Hops()+p2.Hops())
	}
}

func TestDisjointPairRespectsExclusions(t *testing.T) {
	g := buildDiamond(t)
	l01, _ := g.LinkBetween(0, 1)
	cost := func(l LinkID) float64 {
		if l == l01 {
			return Unreachable
		}
		return 1
	}
	// Only one usable route remains: no pair.
	if _, _, ok := DisjointPair(g, 0, 3, cost); ok {
		t.Fatal("pair found despite excluded link")
	}
}

// TestDisjointPairProperty: whenever a pair is found it is link-disjoint,
// both paths connect src to dst, and the total cost is no worse than any
// naive sequential (greedy) pair.
func TestDisjointPairProperty(t *testing.T) {
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(12)
		g := randomConnectedGraph(r, n)
		costs := make([]float64, g.NumLinks())
		for i := range costs {
			costs[i] = 0.25 + r.Float64()*3
		}
		cost := func(l LinkID) float64 { return costs[l] }
		src := NodeID(r.Intn(n))
		dst := NodeID(r.Intn(n))
		if src == dst {
			return true
		}
		p1, p2, ok := DisjointPair(g, src, dst, cost)
		if !ok {
			return true
		}
		if p1.SharedLinks(p2) != 0 {
			t.Logf("seed %d: overlap", seed)
			return false
		}
		for _, p := range []Path{p1, p2} {
			if p.Source(g) != src || p.Dest(g) != dst {
				return false
			}
		}
		// Joint total <= greedy total (when greedy finds a pair).
		g1, c1 := new(Scratch).ShortestPath(g, src, dst, cost)
		greedySecond, c2 := new(Scratch).ShortestPath(g, src, dst, func(l LinkID) float64 {
			if g1.Contains(l) {
				return Unreachable
			}
			return cost(l)
		})
		_ = greedySecond
		if !math.IsInf(c2, 1) {
			joint := pathCost(p1, cost) + pathCost(p2, cost)
			if joint > c1+c2+1e-9 {
				t.Logf("seed %d: joint %v > greedy %v", seed, joint, c1+c2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestDisjointPairFindsWhenGreedyFails: construct the trap where the
// greedy backup search fails but Bhandari succeeds.
func TestDisjointPairFindsWhenGreedyFails(t *testing.T) {
	//      1 --- 2
	//     /|     |\
	//    0 |     | 5
	//     \|     |/
	//      3 --- 4
	// With a cheap chord 1-4 wait; classic trap: shortest 0->5 path uses
	// the middle chord that both alternatives need. Build:
	// 0-1,1-2,2-5 (top), 0-3,3-4,4-5 (bottom), 1-4 chord cheap so the
	// shortest path is 0-1-4-5 — which blocks... 1-4 used by shortest;
	// greedy backup then needs 0-3-4? 4-5 taken. Let's verify concretely.
	g := New(6)
	type e struct {
		u, v NodeID
		c    float64
	}
	edges := []e{
		{0, 1, 1}, {1, 2, 1}, {2, 5, 1},
		{0, 3, 1}, {3, 4, 1}, {4, 5, 1},
		{1, 4, 0.1},
	}
	costs := make(map[LinkID]float64)
	for _, ed := range edges {
		if _, err := g.AddEdge(ed.u, ed.v); err != nil {
			t.Fatal(err)
		}
		fwd, _ := g.LinkBetween(ed.u, ed.v)
		costs[fwd] = ed.c
		costs[g.Reverse(fwd)] = ed.c
	}
	cost := func(l LinkID) float64 { return costs[l] }

	// Greedy: shortest is 0-1-4-5 (cost 2.1). An edge-disjoint backup
	// (physical failures kill both directions) then needs to avoid edges
	// 0-1, 1-4 and 4-5 — impossible here, so greedy finds nothing...
	p1, _ := new(Scratch).ShortestPath(g, 0, 5, cost)
	if p1.Format(g) != "0->1->4->5" {
		t.Fatalf("unexpected shortest path %s", p1.Format(g))
	}
	_, c2 := new(Scratch).ShortestPath(g, 0, 5, func(l LinkID) float64 {
		if p1.ContainsEdge(g, g.Link(l).Edge) {
			return Unreachable
		}
		return cost(l)
	})
	if !math.IsInf(c2, 1) {
		t.Fatalf("greedy unexpectedly found a backup (cost %v)", c2)
	}
	// ...but the joint pair exists: the top and bottom routes. Bhandari
	// detangles the 1-4 chord that trapped the greedy search.
	j1, j2, ok := DisjointPair(g, 0, 5, cost)
	if !ok {
		t.Fatal("Bhandari found no pair in the trap topology")
	}
	if j1.SharedLinks(j2) != 0 {
		t.Fatal("pair overlaps")
	}
	if j1.SharedEdges(g, j2) != 0 {
		t.Fatal("pair shares a physical edge")
	}
	if got := pathCost(j1, cost) + pathCost(j2, cost); got != 6 {
		t.Fatalf("joint total = %v, want 6 (top + bottom)", got)
	}
}
