package graph_test

import (
	"strconv"
	"testing"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsr"
	"github.com/rtcl/drtp/internal/rng"
	"github.com/rtcl/drtp/internal/topology"
)

var benchPath graph.Path

// BenchmarkRouteSearch times the two searches behind a link-state route on
// the ledger's topologies (Waxman, average degree 3 — six links per node —
// as paper_sweep and scale_2k draw them) and at the 10k-node experiment's
// size: the minimum-hop primary, then the backup search under D-LSR's cost
// shape, ε plus a small conflict count with Q on the primary's links. The
// one-ended reference runs the same backup queries, so the ratio the
// two-ended search buys is read off one table. settled/op counts the nodes
// a backup search settles, labelled/op those a primary search reaches, both
// as the mean over the fixed queries.
func BenchmarkRouteSearch(b *testing.B) {
	for _, nodes := range []int{60, 2000, 10000} {
		b.Run(strconv.Itoa(nodes), func(b *testing.B) { benchRouteSearch(b, nodes) })
	}
}

func benchRouteSearch(b *testing.B, nodes int) {
	g, err := topology.Waxman(topology.WaxmanConfig{Nodes: nodes, AvgDegree: 3, MinDegree: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	conflicts := make([]float64, g.NumLinks())
	for l := range conflicts {
		if r.Intn(4) == 0 {
			conflicts[l] = float64(1 + r.Intn(3))
		}
	}
	avoid := make([]bool, g.NumLinks())
	cost := func(l graph.LinkID) float64 {
		c := lsr.Epsilon + conflicts[l]
		if avoid[l] {
			c += lsr.Q
		}
		return c
	}
	open := func(graph.LinkID) bool { return true }
	s := graph.NewScratch()
	type query struct {
		src, dst graph.NodeID
		primary  graph.Path
	}
	queries := make([]query, 64)
	for i := range queries {
		q := &queries[i]
		for q.src == q.dst {
			q.src, q.dst = graph.NodeID(r.Intn(nodes)), graph.NodeID(r.Intn(nodes))
		}
		q.primary, _ = s.MinHopPath(g, q.src, q.dst, open)
	}
	// withPrimaryAvoided runs search for q with its primary's links
	// penalised.
	withPrimaryAvoided := func(q *query, search func()) {
		for _, l := range q.primary.Links() {
			avoid[l] = true
		}
		search()
		for _, l := range q.primary.Links() {
			avoid[l] = false
		}
	}
	// run times search over the queries in turn; the count is taken in
	// a pass of its own, outside the clock.
	run := func(b *testing.B, unit string, search func(q *query), count func() int) {
		total := 0
		for i := range queries {
			search(&queries[i])
			total += count()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			search(&queries[i%len(queries)])
		}
		b.ReportMetric(float64(total)/float64(len(queries)), unit)
	}
	b.Run("MinHopPath", func(b *testing.B) {
		run(b, "labelled/op", func(q *query) {
			benchPath, _ = s.MinHopPath(g, q.src, q.dst, open)
		}, s.LabelledByMinHopPath)
	})
	b.Run("ShortestPath", func(b *testing.B) {
		run(b, "settled/op", func(q *query) {
			withPrimaryAvoided(q, func() { benchPath, _ = s.ShortestPath(g, q.src, q.dst, cost) })
		}, func() int { return s.SettledByDijkstra(g, true) })
	})
	b.Run("reference", func(b *testing.B) {
		run(b, "settled/op", func(q *query) {
			withPrimaryAvoided(q, func() { benchPath, _ = s.ReferenceShortestPath(g, q.src, q.dst, cost) })
		}, func() int { return s.SettledByDijkstra(g, false) })
	})
}
