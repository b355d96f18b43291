package graph_test

// Differential tests of the two-ended searches against the one-ended
// reference (graph.Scratch.ReferenceShortestPath): the same route link for
// link and the same cost bit for bit, whatever the graph and the costs.

import (
	"math"
	"testing"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsr"
	"github.com/rtcl/drtp/internal/rng"
	"github.com/rtcl/drtp/internal/topology"
)

// costMixes is the number of cost families searchCosts draws from.
const costMixes = 8

// searchGraph draws a graph of 2..maxNodes nodes: a Waxman graph (connected,
// the evaluation's topology) or a uniformly random sparse one, which may
// fall into several components and leave nodes isolated.
func searchGraph(tb testing.TB, r *rng.Source, maxNodes int, waxman bool) *graph.Graph {
	tb.Helper()
	n := 2 + r.Intn(maxNodes-1)
	if waxman && n >= 4 {
		g, err := topology.Waxman(topology.WaxmanConfig{
			Nodes: n, AvgDegree: 2 + 2*r.Float64(), MinDegree: 1 + r.Intn(2), Seed: r.Int63(),
		})
		if err == nil {
			return g
		}
	}
	g := graph.New(n)
	for e := r.Intn(2*n + 1); e > 0; e-- {
		// Self-loops and duplicates are refused; the graph is just sparser.
		_, _ = g.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)))
	}
	return g
}

// searchCosts fills a per-link cost table from one of the families that
// between them reach every tie and pruning path of the search.
func searchCosts(g *graph.Graph, r *rng.Source, mix int) []float64 {
	costs := make([]float64, g.NumLinks())
	smallInt := func() float64 { return float64(r.Intn(3)) }
	for l := range costs {
		switch mix {
		case 0: // minimum hop
			costs[l] = 1
		case 1: // D-LSR: ε plus a conflict count, whole levels tie
			costs[l] = lsr.Epsilon + smallInt()
		case 2: // the same with Q on a random link set: sums near 1e6 round
			costs[l] = lsr.Epsilon + smallInt()
			if r.Intn(3) == 0 {
				costs[l] += lsr.Q
			}
		case 3: // zero-cost links: tight predecessors at equal distance
			costs[l] = smallInt()
		case 4: // many closed links: unreachable destinations
			costs[l] = 1 + float64(r.Intn(8))
			if r.Intn(5) < 2 {
				costs[l] = graph.Unreachable
			}
		case 5: // P-LSR: ε plus a real-valued metric, few ties
			costs[l] = lsr.Epsilon + 4*r.Float64()
		case 6: // small integers: first labels are often not final
			costs[l] = 1 + float64(r.Intn(8))
		case 7: // ε with everything else zero or Q: sums of many equal terms
			costs[l] = lsr.Epsilon
			if r.Intn(2) == 0 {
				costs[l] += lsr.Q
			}
		}
	}
	// One-way reachability: close one direction of some edges.
	if r.Intn(3) == 0 {
		for e := 0; e < g.NumEdges(); e++ {
			if r.Intn(4) == 0 {
				fwd, bwd := g.EdgeLinks(graph.EdgeID(e))
				if r.Intn(2) == 0 {
					fwd = bwd
				}
				costs[fwd] = graph.Unreachable
			}
		}
	}
	return costs
}

// searchTally counts what a corpus exercised, so a test can refuse a tame
// one.
type searchTally struct {
	queries, unreachable, sameNode, multiHop, overQ int
}

// checkSearchesAgree holds ShortestPath under costs, and MinHopPath over
// the links costs leaves open, to the reference for one src–dst pair. s is
// the scratch under test, ref the reference's.
func checkSearchesAgree(tb testing.TB, s, ref *graph.Scratch, g *graph.Graph, costs []float64, src, dst graph.NodeID, tally *searchTally) {
	tb.Helper()
	cost := func(l graph.LinkID) float64 { return costs[l] }
	want, wantCost := ref.ReferenceShortestPath(g, src, dst, cost)
	got, gotCost := s.ShortestPath(g, src, dst, cost)
	if math.Float64bits(gotCost) != math.Float64bits(wantCost) || !sameLinks(got, want) {
		tb.Fatalf("%d nodes %d->%d: ShortestPath (%v, %v), reference (%v, %v)\ncosts %v",
			g.NumNodes(), src, dst, got.Links(), gotCost, want.Links(), wantCost, costs)
	}

	open := func(l graph.LinkID) bool { return !math.IsInf(costs[l], 1) }
	unit := func(l graph.LinkID) float64 {
		if open(l) {
			return 1
		}
		return graph.Unreachable
	}
	wantHop, hopCost := ref.ReferenceShortestPath(g, src, dst, unit)
	gotHop, ok := s.MinHopPath(g, src, dst, open)
	if ok != (hopCost != graph.Unreachable) || !sameLinks(gotHop, wantHop) {
		tb.Fatalf("%d nodes %d->%d: MinHopPath (%v, %v), reference at unit cost (%v, %v)\ncosts %v",
			g.NumNodes(), src, dst, gotHop.Links(), ok, wantHop.Links(), hopCost, costs)
	}

	tally.queries++
	switch {
	case src == dst:
		tally.sameNode++
	case wantCost == graph.Unreachable:
		tally.unreachable++
	default:
		if want.Hops() > 1 {
			tally.multiHop++
		}
		if wantCost >= lsr.Q {
			tally.overQ++
		}
	}
}

// TestSearchesMatchOneEndedReference is the licence for searching from both
// ends: over thousands of seeded graphs of 2 to 300 nodes and every cost
// family, one long-lived Scratch — reused across graphs of different
// sizes, ShortestPath, MinHopPath and now and then the all-destinations
// search interleaved — returns exactly what the one-ended reference
// returns.
func TestSearchesMatchOneEndedReference(t *testing.T) {
	const (
		graphs          = 1600
		queriesPerGraph = 8
	)
	s, ref := graph.NewScratch(), graph.NewScratch()
	var tally searchTally
	for i := 0; i < graphs; i++ {
		r := rng.New(int64(1000 + i))
		maxNodes := 300
		if i%4 == 0 {
			maxNodes = 12 // small graphs: every corner within a few hops
		}
		g := searchGraph(t, r, maxNodes, i%3 == 0)
		costs := searchCosts(g, r, i%costMixes)
		n := g.NumNodes()
		for q := 0; q < queriesPerGraph; q++ {
			src, dst := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
			if q == 0 {
				dst = src
			}
			if q%3 == 2 {
				// The all-destinations search writes every label of the
				// arrays ShortestPath resets only where it looks.
				s.ShortestDistancesInto(g, dst, func(l graph.LinkID) float64 { return costs[l] })
			}
			checkSearchesAgree(t, s, ref, g, costs, src, dst, &tally)
		}
	}
	if tally.queries < 10000 || tally.unreachable < 500 || tally.sameNode < 500 ||
		tally.multiHop < 3000 || tally.overQ < 300 {
		t.Fatalf("corpus too tame: %+v", tally)
	}
}

// FuzzShortestPathAgrees lets the fuzzer pick the graph, the cost family
// and the end points of the same check.
func FuzzShortestPathAgrees(f *testing.F) {
	for seed := int64(0); seed < 2*costMixes; seed++ {
		f.Add(seed, uint8(seed), seed%2 == 0, uint16(seed), uint16(3*seed+1))
	}
	f.Fuzz(func(t *testing.T, seed int64, mix uint8, waxman bool, a, b uint16) {
		r := rng.New(seed)
		g := searchGraph(t, r, 64, waxman)
		costs := searchCosts(g, r, int(mix)%costMixes)
		n := g.NumNodes()
		src, dst := graph.NodeID(int(a)%n), graph.NodeID(int(b)%n)
		s := graph.NewScratch()
		var tally searchTally
		// Twice through one scratch, both ways round: the second pair of
		// queries runs on the state the first left.
		checkSearchesAgree(t, s, graph.NewScratch(), g, costs, src, dst, &tally)
		checkSearchesAgree(t, s, graph.NewScratch(), g, costs, dst, src, &tally)
	})
}

// TestSearchesLeaveMostOfTheGraphUnvisited pins what the two-ended search
// is for, by count rather than by clock: on a 2000-node Waxman graph it
// settles a small fraction of what the reference settles. A pruning test
// that let every push through would still return the right routes — the
// differential tests cannot see it — but not this few nodes.
func TestSearchesLeaveMostOfTheGraphUnvisited(t *testing.T) {
	g, err := topology.Waxman(topology.WaxmanConfig{Nodes: 2000, AvgDegree: 3, MinDegree: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	costs := searchCosts(g, r, 1)
	cost := func(l graph.LinkID) float64 { return costs[l] }
	open := func(graph.LinkID) bool { return true }
	s, ref := graph.NewScratch(), graph.NewScratch()
	var settled, refSettled, labelled int
	const queries = 50
	for q := 0; q < queries; q++ {
		src, dst := graph.NodeID(r.Intn(2000)), graph.NodeID(r.Intn(2000))
		s.ShortestPath(g, src, dst, cost)
		settled += s.SettledByDijkstra(g, true)
		ref.ReferenceShortestPath(g, src, dst, cost)
		refSettled += ref.SettledByDijkstra(g, false)
		s.MinHopPath(g, src, dst, open)
		labelled += s.LabelledByMinHopPath()
	}
	t.Logf("per query: ShortestPath settles %d nodes, the reference %d; MinHopPath labels %d",
		settled/queries, refSettled/queries, labelled/queries)
	if 4*settled > refSettled {
		t.Errorf("ShortestPath settled %d nodes over %d queries, the one-ended reference %d: want under a quarter",
			settled, queries, refSettled)
	}
	if 4*labelled > 2000*queries {
		t.Errorf("MinHopPath labelled %d nodes over %d queries on 2000 nodes: want under a quarter of the graph",
			labelled, queries)
	}
}
