package topology

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/rng"
)

// referenceWaxman is the earlier Waxman, kept as the reference the
// one-weight-per-pair generator is held to: every weighted draw computes
// its weights once to sum them and again to spend the draw, and the
// maximum distance is a Hypot over every pair. restarted reports whether
// the minimum-degree step fell back to the weighted path.
func referenceWaxman(cfg WaxmanConfig) (g *graph.Graph, restarted bool, err error) {
	cfg.setDefaults()
	n := cfg.Nodes
	if n < 2 {
		return nil, false, fmt.Errorf("topology: need at least 2 nodes, got %d", n)
	}
	targetEdges := int(math.Round(float64(n) * cfg.AvgDegree / 2))
	maxEdges := n * (n - 1) / 2
	if targetEdges < n-1 || targetEdges > maxEdges {
		return nil, false, fmt.Errorf("topology: avg degree %.2f out of range", cfg.AvgDegree)
	}

	src := rng.New(cfg.Seed)
	posRNG := src.Split("positions")
	edgeRNG := src.Split("edges")
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = posRNG.Float64()
		ys[i] = posRNG.Float64()
	}
	maxDist := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := dist(xs, ys, i, j); d > maxDist {
				maxDist = d
			}
		}
	}
	if maxDist == 0 {
		maxDist = 1
	}
	weight := func(i, j int) float64 {
		return cfg.Alpha * math.Exp(-dist(xs, ys, i, j)/(cfg.Beta*maxDist))
	}

	g = graph.New(n)
	added := make(map[[2]int]bool, targetEdges)
	addEdge := func(i, j int) error {
		if i > j {
			i, j = j, i
		}
		if _, err := g.AddEdge(graph.NodeID(i), graph.NodeID(j)); err != nil {
			return err
		}
		added[[2]int{i, j}] = true
		return nil
	}

	order := edgeRNG.Perm(n)
	inTree := []int{order[0]}
	for _, next := range order[1:] {
		total := 0.0
		for _, t := range inTree {
			total += weight(next, t)
		}
		pick := edgeRNG.Float64() * total
		chosen := inTree[len(inTree)-1]
		for _, t := range inTree {
			pick -= weight(next, t)
			if pick <= 0 {
				chosen = t
				break
			}
		}
		if err := addEdge(next, chosen); err != nil {
			return nil, false, err
		}
		inTree = append(inTree, next)
	}

	if cfg.MinDegree > 0 {
		if err := referenceRaiseMinDegree(g, cfg, edgeRNG, weight, targetEdges, addEdge); err != nil {
			restarted = true
			g, added = graph.New(n), make(map[[2]int]bool, targetEdges)
			if err := referenceWeightedPath(edgeRNG, n, weight, addEdge); err != nil {
				return nil, true, err
			}
			if err := referenceRaiseMinDegree(g, cfg, edgeRNG, weight, targetEdges, addEdge); err != nil {
				return nil, true, err
			}
		}
	}

	if n <= waxmanEnumerationMax {
		err = sampleEdgesEnumerated(g, edgeRNG, n, maxEdges, targetEdges, weight, added, addEdge)
	} else {
		err = sampleEdgesRejection(g, edgeRNG, cfg.Alpha, n, targetEdges, weight, added, addEdge)
	}
	if err != nil {
		return nil, restarted, err
	}
	if g.NumEdges() != targetEdges || !g.Connected() {
		return nil, restarted, fmt.Errorf("topology: invalid graph")
	}
	return g, restarted, nil
}

func referenceWeightedPath(edgeRNG *rng.Source, n int, weight func(i, j int) float64, addEdge func(i, j int) error) error {
	rest := edgeRNG.Perm(n)
	cur := rest[0]
	rest = rest[1:]
	for len(rest) > 0 {
		total := 0.0
		for _, v := range rest {
			total += weight(cur, v)
		}
		pick := edgeRNG.Float64() * total
		k := len(rest) - 1
		for i, v := range rest {
			pick -= weight(cur, v)
			if pick <= 0 {
				k = i
				break
			}
		}
		next := rest[k]
		if err := addEdge(cur, next); err != nil {
			return err
		}
		rest[k] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		cur = next
	}
	return nil
}

func referenceRaiseMinDegree(g *graph.Graph, cfg WaxmanConfig, edgeRNG *rng.Source,
	weight func(i, j int) float64, targetEdges int, addEdge func(i, j int) error) error {
	n := cfg.Nodes
	if cfg.MinDegree >= n {
		return fmt.Errorf("topology: min degree %d impossible with %d nodes", cfg.MinDegree, n)
	}
	for {
		var def []int
		for i := 0; i < n; i++ {
			if g.Degree(graph.NodeID(i)) < cfg.MinDegree {
				def = append(def, i)
			}
		}
		if len(def) == 0 {
			return nil
		}
		if g.NumEdges() >= targetEdges {
			return fmt.Errorf("topology: cannot reach min degree %d within %d edges", cfg.MinDegree, targetEdges)
		}
		u := def[edgeRNG.Intn(len(def))]
		pick := func(pool []int) (int, bool) {
			total := 0.0
			for _, v := range pool {
				total += weight(u, v)
			}
			if total == 0 {
				return 0, false
			}
			r := edgeRNG.Float64() * total
			for _, v := range pool {
				r -= weight(u, v)
				if r <= 0 {
					return v, true
				}
			}
			return pool[len(pool)-1], true
		}
		eligible := func(onlyDeficient bool) []int {
			var pool []int
			for v := 0; v < n; v++ {
				if v == u {
					continue
				}
				if onlyDeficient && g.Degree(graph.NodeID(v)) >= cfg.MinDegree {
					continue
				}
				if _, dup := g.LinkBetween(graph.NodeID(u), graph.NodeID(v)); dup {
					continue
				}
				pool = append(pool, v)
			}
			return pool
		}
		pool := eligible(true)
		if len(pool) == 0 {
			pool = eligible(false)
		}
		if len(pool) == 0 {
			return fmt.Errorf("topology: node %d cannot reach min degree %d", u, cfg.MinDegree)
		}
		v, ok := pick(pool)
		if !ok {
			v = pool[edgeRNG.Intn(len(pool))]
		}
		if err := addEdge(u, v); err != nil {
			return err
		}
	}
}

// matchReference fails t unless Waxman builds the reference's graph on
// cfg, link for link, and returns whether the reference restarted.
func matchReference(t *testing.T, cfg WaxmanConfig) bool {
	t.Helper()
	got, err := Waxman(cfg)
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	want, restarted, err := referenceWaxman(cfg)
	if err != nil {
		t.Fatalf("%+v: reference: %v", cfg, err)
	}
	if !reflect.DeepEqual(got, want) {
		for l := 0; l < min(got.NumLinks(), want.NumLinks()); l++ {
			if a, b := got.Link(graph.LinkID(l)), want.Link(graph.LinkID(l)); a != b {
				t.Fatalf("%+v: link %d is %v, reference %v", cfg, l, a, b)
			}
		}
		t.Fatalf("%+v: %d links, reference %d", cfg, got.NumLinks(), want.NumLinks())
	}
	return restarted
}

func TestWaxmanMatchesReference(t *testing.T) {
	for _, n := range []int{60, 200, 999, 1001, 2000} {
		for _, degree := range []float64{3, 4} {
			for _, minDegree := range []int{0, 2} {
				cfg := WaxmanConfig{Nodes: n, AvgDegree: degree, MinDegree: minDegree, Seed: int64(n)}
				t.Run(fmt.Sprintf("%d/E%g/min%d", n, degree, minDegree), func(t *testing.T) {
					if testing.Short() && n > waxmanEnumerationMax {
						t.Skip("rejection sampler sizes")
					}
					matchReference(t, cfg)
				})
			}
		}
	}
	// The seed TestWaxmanValidProperty found: 32 nodes, 40 edges, a
	// spanning tree with more leaves than the spare edges can pair up.
	t.Run("weightedPath restart", func(t *testing.T) {
		const seed = -6318998676484391055
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(40)
		degree := 2.5 + r.Float64()*2
		if !matchReference(t, WaxmanConfig{Nodes: n, AvgDegree: degree, MinDegree: 2, Seed: seed}) {
			t.Fatal("seed no longer takes the weightedPath restart")
		}
	})
}

// BenchmarkWaxman times the evaluation topology (average degree 3,
// minimum degree 2) at the paper's 60 nodes, scale_2k's 2 000 and the
// -exp scale run's 10 000.
func BenchmarkWaxman(b *testing.B) {
	for _, n := range []int{60, 2000, 10000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Waxman(WaxmanConfig{Nodes: n, AvgDegree: 3, MinDegree: 2, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
