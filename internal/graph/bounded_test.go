package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestShortestPathBoundedBasics(t *testing.T) {
	g := buildDiamond(t)
	p, cost := new(Scratch).ShortestPathBounded(g, 0, 3, UnitCost, 4)
	if cost != 2 || p.Hops() != 2 {
		t.Fatalf("cost=%v hops=%d", cost, p.Hops())
	}
	// Bound below the shortest path: unreachable.
	if _, cost := new(Scratch).ShortestPathBounded(g, 0, 3, UnitCost, 1); !math.IsInf(cost, 1) {
		t.Fatalf("cost = %v, want unreachable under bound 1", cost)
	}
	// Self path costs nothing regardless of bound.
	if p, cost := new(Scratch).ShortestPathBounded(g, 2, 2, UnitCost, 0); cost != 0 || !p.Empty() {
		t.Fatalf("self path = %v cost %v", p, cost)
	}
	// Non-positive bound to another node: unreachable.
	if _, cost := new(Scratch).ShortestPathBounded(g, 0, 1, UnitCost, 0); !math.IsInf(cost, 1) {
		t.Fatal("zero bound reached another node")
	}
}

func TestShortestPathBoundedPrefersCheapLongerPath(t *testing.T) {
	// Diamond with an expensive direct-ish route: 0->1->3 expensive via
	// link 0->1; 0->2->3 cheap. With bound 2 both fit; the cheap one wins.
	g := buildDiamond(t)
	l01, _ := g.LinkBetween(0, 1)
	cost := func(l LinkID) float64 {
		if l == l01 {
			return 10
		}
		return 1
	}
	p, total := new(Scratch).ShortestPathBounded(g, 0, 3, cost, 2)
	if total != 2 || p.Contains(l01) {
		t.Fatalf("total=%v path=%s", total, p.Format(g))
	}
	// Bound forces the expensive route when the cheap one is too long:
	// make the cheap route 3 hops by using a line extension.
	g2 := New(5)
	mustEdge := func(u, v NodeID) LinkID {
		if _, err := g2.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
		l, _ := g2.LinkBetween(u, v)
		return l
	}
	direct := mustEdge(0, 1) // 1 hop, cost 10
	mustEdge(0, 2)           // cheap detour 0-2-3-1, 3 hops
	mustEdge(2, 3)
	mustEdge(3, 1)
	mustEdge(1, 4) // padding node
	cost2 := func(l LinkID) float64 {
		if l == direct || l == g2.Reverse(direct) {
			return 10
		}
		return 1
	}
	// Unbounded (large bound): cheap 3-hop detour.
	p, total = new(Scratch).ShortestPathBounded(g2, 0, 1, cost2, 10)
	if total != 3 || p.Hops() != 3 {
		t.Fatalf("unbounded-ish: total=%v hops=%d", total, p.Hops())
	}
	// Bound 2: only the direct link fits.
	p, total = new(Scratch).ShortestPathBounded(g2, 0, 1, cost2, 2)
	if total != 10 || p.Hops() != 1 {
		t.Fatalf("bounded: total=%v hops=%d", total, p.Hops())
	}
}

func TestShortestPathBoundedExcludedLinks(t *testing.T) {
	g := buildDiamond(t)
	l01, _ := g.LinkBetween(0, 1)
	cost := func(l LinkID) float64 {
		if l == l01 {
			return Unreachable
		}
		return 1
	}
	p, total := new(Scratch).ShortestPathBounded(g, 0, 3, cost, 3)
	if math.IsInf(total, 1) || p.Contains(l01) {
		t.Fatalf("total=%v path=%s", total, p.Format(g))
	}
}

// TestBoundedMatchesDijkstraProperty: with a generous bound the
// constrained search must equal plain Dijkstra.
func TestBoundedMatchesDijkstraProperty(t *testing.T) {
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
		_, want := new(Scratch).ShortestPath(g, src, dst, cost)
		_, got := new(Scratch).ShortestPathBounded(g, src, dst, cost, n)
		if math.IsInf(want, 1) != math.IsInf(got, 1) {
			return false
		}
		return math.IsInf(want, 1) || math.Abs(want-got) < 1e-9
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestBoundedRespectsBoundProperty: the returned path never exceeds the
// hop bound, its cost equals the link-cost sum, and tightening the bound
// never lowers the cost.
func TestBoundedRespectsBoundProperty(t *testing.T) {
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
		if src == dst {
			return true
		}
		prev := math.Inf(1)
		for bound := n; bound >= 1; bound-- {
			p, total := new(Scratch).ShortestPathBounded(g, src, dst, cost, bound)
			if math.IsInf(total, 1) {
				prev = total
				continue
			}
			if p.Hops() > bound || p.Source(g) != src || p.Dest(g) != dst {
				return false
			}
			sum := 0.0
			for _, l := range p.Links() {
				sum += cost(l)
			}
			if math.Abs(sum-total) > 1e-9 {
				return false
			}
			// Tightening the bound can only increase (or keep) the cost;
			// a cheaper path under a tighter bound would also have been
			// available under the looser one.
			if !math.IsInf(prev, 1) && total < prev-1e-9 {
				return false
			}
			prev = total
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
