package graph_test

// External test package: the property tests draw random topologies from
// internal/topology, which itself imports graph.

import (
	"fmt"
	"math"
	"testing"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/rng"
	"github.com/rtcl/drtp/internal/topology"
)

// randomGraphs yields the property-test corpus: Waxman graphs (the
// paper's evaluation topology) and Barabási–Albert graphs (hubs and a
// heavy-tailed degree distribution, the opposite regime) across several
// seeds.
func randomGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := make(map[string]*graph.Graph)
	for seed := int64(1); seed <= 3; seed++ {
		w, err := topology.Waxman(topology.WaxmanConfig{
			Nodes: 40, AvgDegree: 3.5, MinDegree: 2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("waxman/%d", seed)] = w
		b, err := topology.BarabasiAlbert(topology.BarabasiAlbertConfig{
			Nodes: 40, M: 2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("barabasi/%d", seed)] = b
	}
	return out
}

// randomCost builds a deterministic pseudo-random cost table over g's
// links: mostly small positive costs, with runs of equal cost to stress
// tie-breaking and a sprinkling of Unreachable links.
func randomCost(g *graph.Graph, seed int64) graph.CostFunc {
	src := rng.New(seed)
	costs := make([]float64, g.NumLinks())
	for i := range costs {
		switch src.Intn(10) {
		case 0:
			costs[i] = graph.Unreachable
		case 1, 2, 3:
			costs[i] = 1 // frequent ties
		default:
			costs[i] = 1 + float64(src.Intn(8))
		}
	}
	return func(l graph.LinkID) float64 { return costs[l] }
}

// TestScratchMatchesFreshDijkstra is the scratch-reuse property test: a
// single long-lived Scratch answering an arbitrary query sequence must
// return exactly what a fresh one-ended reference search returns — same
// links, same cost — on random Waxman and Barabási–Albert graphs.
// Interleaving all-pairs unbounded and hop-bounded queries through one
// Scratch maximizes the chance of stale-state leakage between query kinds,
// and BellmanFordDistances cross-checks the distances against an
// independent algorithm.
func TestScratchMatchesFreshDijkstra(t *testing.T) {
	reused := graph.NewScratch()
	for name, g := range randomGraphs(t) {
		for costSeed := int64(10); costSeed <= 12; costSeed++ {
			cost := randomCost(g, costSeed)
			for src := 0; src < g.NumNodes(); src += 7 {
				ref := graph.BellmanFordDistances(g, graph.NodeID(src), cost)
				for dst := 0; dst < g.NumNodes(); dst += 3 {
					sp, sc := reused.ShortestPath(g, graph.NodeID(src), graph.NodeID(dst), cost)
					fp, fc := new(graph.Scratch).ReferenceShortestPath(g, graph.NodeID(src), graph.NodeID(dst), cost)
					if sc != fc {
						t.Fatalf("%s cost=%d %d->%d: scratch cost %v, fresh %v",
							name, costSeed, src, dst, sc, fc)
					}
					if !sameLinks(sp, fp) {
						t.Fatalf("%s cost=%d %d->%d: scratch path %v, fresh %v",
							name, costSeed, src, dst, sp.Links(), fp.Links())
					}
					if !math.IsInf(ref[dst], 1) && sc != ref[dst] {
						t.Fatalf("%s cost=%d %d->%d: dijkstra %v, bellman-ford %v",
							name, costSeed, src, dst, sc, ref[dst])
					}
					// Alternate in a bounded query so the layered tables and
					// the plain arrays cross through the same scratch.
					bp, bc := reused.ShortestPathBounded(g, graph.NodeID(src), graph.NodeID(dst), cost, 4)
					fbp, fbc := new(graph.Scratch).ShortestPathBounded(g, graph.NodeID(src), graph.NodeID(dst), cost, 4)
					if bc != fbc || !sameLinks(bp, fbp) {
						t.Fatalf("%s cost=%d %d->%d: bounded scratch (%v, %v) != fresh (%v, %v)",
							name, costSeed, src, dst, bp.Links(), bc, fbp.Links(), fbc)
					}
				}
				sd := reused.ShortestDistancesInto(g, graph.NodeID(src), cost)
				for n := range sd {
					if sd[n] != ref[n] {
						t.Fatalf("%s cost=%d from %d: distances[%d] = %v, bellman-ford %v",
							name, costSeed, src, n, sd[n], ref[n])
					}
				}
			}
		}
	}
}

func sameLinks(a, b graph.Path) bool {
	al, bl := a.Links(), b.Links()
	if len(al) != len(bl) {
		return false
	}
	for i := range al {
		if al[i] != bl[i] {
			return false
		}
	}
	return true
}

// TestScratchShortestPathAllocs is the allocation budget for the sweep's
// hottest call: after warmup a Scratch query must allocate only the
// returned Path's link slice, and the distances-only form nothing at
// all. A regression here multiplies across the millions of route
// computations a sweep performs.
func TestScratchShortestPathAllocs(t *testing.T) {
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 60, AvgDegree: 3, MinDegree: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cost := randomCost(g, 9)
	s := graph.NewScratch()
	s.ShortestPath(g, 0, 59, cost) // warm the buffers

	if avg := testing.AllocsPerRun(200, func() {
		s.ShortestPath(g, 0, 59, cost)
	}); avg > 1 {
		t.Errorf("Scratch.ShortestPath allocates %.1f objects per query, want <= 1 (the Path)", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		s.ShortestDistancesInto(g, 0, cost)
	}); avg > 0 {
		t.Errorf("Scratch.ShortestDistancesInto allocates %.1f objects per query, want 0", avg)
	}
	s.ShortestPathBounded(g, 0, 59, cost, 6) // warm the layered tables
	if avg := testing.AllocsPerRun(50, func() {
		s.ShortestPathBounded(g, 0, 59, cost, 6)
	}); avg > 1 {
		t.Errorf("Scratch.ShortestPathBounded allocates %.1f objects per query, want <= 1", avg)
	}
}

// TestMinHopPathMatchesUnitCostDijkstra is the differential test for the
// breadth-first primary search: over random graphs and random closed-link
// masks, MinHopPath must return the very link sequence the one-ended
// reference Dijkstra returns at unit cost — not merely a path of the same
// length — and agree on unreachability and on src == dst. One Scratch
// serves both searches, interleaved, so neither may leave state the other
// trips over.
func TestMinHopPathMatchesUnitCostDijkstra(t *testing.T) {
	s := graph.NewScratch()
	unreachable, multiHop := 0, 0
	for name, g := range randomGraphs(t) {
		for maskSeed := int64(20); maskSeed <= 24; maskSeed++ {
			// Closed share 0 %, 15 %, … 60 %: from every tie in play to
			// a network in pieces.
			src := rng.New(maskSeed)
			closed := make([]bool, g.NumLinks())
			for l := range closed {
				closed[l] = src.Intn(100) < 15*int(maskSeed-20)
			}
			open := func(l graph.LinkID) bool { return !closed[l] }
			cost := func(l graph.LinkID) float64 {
				if closed[l] {
					return graph.Unreachable
				}
				return 1
			}
			for a := 0; a < g.NumNodes(); a++ {
				for b := 0; b < g.NumNodes(); b++ {
					want, total := s.ReferenceShortestPath(g, graph.NodeID(a), graph.NodeID(b), cost)
					got, ok := s.MinHopPath(g, graph.NodeID(a), graph.NodeID(b), open)
					if ok != (total != graph.Unreachable) {
						t.Fatalf("%s mask=%d %d->%d: MinHopPath reachable = %v, Dijkstra cost %v", name, maskSeed, a, b, ok, total)
					}
					if !sameLinks(got, want) {
						t.Fatalf("%s mask=%d %d->%d: MinHopPath %v, Dijkstra %v", name, maskSeed, a, b, got.Links(), want.Links())
					}
					if !ok {
						unreachable++
					}
					if a == b && (!ok || !got.Empty()) {
						t.Fatalf("%s mask=%d %d->%d: got (%v, %v), want the empty path", name, maskSeed, a, b, got.Links(), ok)
					}
					if ok && got.Hops() > 1 {
						multiHop++
					}
				}
			}
		}
	}
	if unreachable == 0 || multiHop == 0 {
		t.Fatalf("corpus too tame: %d unreachable pairs, %d multi-hop paths", unreachable, multiHop)
	}
}

// TestMinHopPathAllocs is the allocation budget of the primary search:
// once the buffers are warm, only the returned Path is allocated.
func TestMinHopPathAllocs(t *testing.T) {
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 60, AvgDegree: 3, MinDegree: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	open := func(l graph.LinkID) bool { return l%7 != 0 }
	s := graph.NewScratch()
	if _, ok := s.MinHopPath(g, 0, 59, open); !ok { // warm the buffers
		t.Fatal("0 -> 59 unreachable; pick another mask")
	}
	if avg := testing.AllocsPerRun(200, func() {
		s.MinHopPath(g, 0, 59, open)
	}); avg > 1 {
		t.Errorf("Scratch.MinHopPath allocates %.1f objects per query, want <= 1 (the Path)", avg)
	}
}
