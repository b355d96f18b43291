// Package topology generates the network topologies used in the paper's
// evaluation: random Waxman graphs with a target average node degree, plus
// regular fixtures (mesh, ring, line) used by the worked examples.
package topology

import (
	"fmt"
	"math"
	"slices"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/rng"
)

// WaxmanConfig parameterizes the Waxman random-graph model (Waxman 1988),
// the generator the paper uses for its 60-node evaluation networks.
type WaxmanConfig struct {
	// Nodes is the number of nodes (paper: 60).
	Nodes int
	// AvgDegree is the target average node degree (paper: 3 and 4). The
	// generated graph has exactly round(Nodes*AvgDegree/2) edges.
	AvgDegree float64
	// Alpha scales overall edge probability. It only shapes which pairs
	// are preferred; the edge count is fixed by AvgDegree. Default 0.4.
	Alpha float64
	// Beta controls the reach of long edges: larger values make long
	// edges more likely. Default 0.4.
	Beta float64
	// MinDegree, when positive, guarantees every node at least this many
	// incident edges (subject to the edge budget; MinDegree 2 always fits
	// a budget of at least Nodes edges). Degree-1 nodes make
	// primary/backup overlap unavoidable for every routing scheme, so
	// the evaluation uses MinDegree 2 (see DESIGN.md).
	MinDegree int
	// Seed drives node placement and edge sampling.
	Seed int64
}

func (c *WaxmanConfig) setDefaults() {
	if c.Alpha == 0 {
		c.Alpha = 0.4
	}
	if c.Beta == 0 {
		c.Beta = 0.4
	}
}

// Waxman generates a connected Waxman graph. Nodes are placed uniformly in
// the unit square; edge preference between u and v is
//
//	P(u,v) = Alpha * exp(-d(u,v) / (Beta * L))
//
// where d is Euclidean distance and L the maximum pairwise distance.
// Connectivity is guaranteed by growing a preference-weighted spanning tree
// first, then sampling the remaining edges without replacement with
// probability proportional to P(u,v).
func Waxman(cfg WaxmanConfig) (*graph.Graph, error) {
	cfg.setDefaults()
	n := cfg.Nodes
	if n < 2 {
		return nil, fmt.Errorf("topology: need at least 2 nodes, got %d", n)
	}
	targetEdges := int(math.Round(float64(n) * cfg.AvgDegree / 2))
	if targetEdges < n-1 {
		return nil, fmt.Errorf("topology: avg degree %.2f too low to connect %d nodes", cfg.AvgDegree, n)
	}
	maxEdges := n * (n - 1) / 2
	if targetEdges > maxEdges {
		return nil, fmt.Errorf("topology: avg degree %.2f exceeds complete graph on %d nodes", cfg.AvgDegree, n)
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

	maxDist := maxDistance(xs, ys)
	if maxDist == 0 {
		maxDist = 1
	}
	scale := cfg.Beta * maxDist
	weight := func(i, j int) float64 {
		return cfg.Alpha * math.Exp(-dist(xs, ys, i, j)/scale)
	}
	g := graph.New(n)
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

	// Phase 1: preference-weighted spanning tree over a random node order.
	order := edgeRNG.Perm(n)
	inTree := []int{order[0]}
	row := make([]float64, 0, n)
	for _, next := range order[1:] {
		var total float64
		row, total = weigh(row, next, inTree, weight)
		chosen := inTree[drawWeighted(edgeRNG, row, total)]
		if err := addEdge(next, chosen); err != nil {
			return nil, err
		}
		inTree = append(inTree, next)
	}

	// Phase 2: satisfy the minimum degree, preferring deficient-deficient
	// pairs so each added edge helps two nodes.
	if cfg.MinDegree > 0 {
		if err := raiseMinDegree(g, cfg, edgeRNG, weight, targetEdges, addEdge); err != nil {
			// A bushy tree can have more leaves than the spare edges can
			// pair up, even when the budget admits the min degree (a cycle
			// has n edges and min degree 2). Restart from a Waxman-weighted
			// Hamiltonian path, which has two leaves. Only configurations
			// that failed here reach this branch, so every graph generated
			// without it is unchanged.
			g, added = graph.New(n), make(map[[2]int]bool, targetEdges)
			if err := weightedPath(edgeRNG, n, weight, addEdge); err != nil {
				return nil, err
			}
			if err := raiseMinDegree(g, cfg, edgeRNG, weight, targetEdges, addEdge); err != nil {
				return nil, err
			}
		}
	}

	// Phase 3: sample the remaining edges with probability proportional to
	// the Waxman preference. Small graphs enumerate every candidate pair
	// and draw without replacement (the historical sampler, kept bit-exact
	// so seeded fixtures and experiment goldens are stable); past
	// waxmanEnumerationMax nodes that enumeration is O(n²) memory and
	// O(edges·n²) time — prohibitive at web scale — so large graphs switch
	// to rejection sampling, which needs no candidate materialization and
	// draws from the same target distribution.
	if n <= waxmanEnumerationMax {
		if err := sampleEdgesEnumerated(g, edgeRNG, n, maxEdges, targetEdges, weight, added, addEdge); err != nil {
			return nil, err
		}
	} else {
		if err := sampleEdgesRejection(g, edgeRNG, cfg.Alpha, n, targetEdges, weight, added, addEdge); err != nil {
			return nil, err
		}
	}

	if g.NumEdges() != targetEdges {
		return nil, fmt.Errorf("topology: generated %d edges, wanted %d", g.NumEdges(), targetEdges)
	}
	if !g.Connected() {
		return nil, fmt.Errorf("topology: generated graph is not connected")
	}
	return g, nil
}

// waxmanEnumerationMax is the largest node count that still uses the
// enumerating phase-3 sampler. Above it, the candidate list alone would
// cost ~n²/2 · 24 B (over 1 GB at 10k nodes) and each weighted pick a
// linear scan of it, so large graphs use rejection sampling instead.
const waxmanEnumerationMax = 1000

// sampleEdgesEnumerated draws the remaining edges without replacement from
// the fully enumerated candidate list, weighted by the Waxman preference.
func sampleEdgesEnumerated(g *graph.Graph, edgeRNG *rng.Source, n, maxEdges, targetEdges int,
	weight func(i, j int) float64, added map[[2]int]bool, addEdge func(i, j int) error) error {
	type cand struct {
		i, j int
		w    float64
	}
	cands := make([]cand, 0, maxEdges-len(added))
	totalW := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if added[[2]int{i, j}] {
				continue
			}
			w := weight(i, j)
			cands = append(cands, cand{i: i, j: j, w: w})
			totalW += w
		}
	}
	for g.NumEdges() < targetEdges && len(cands) > 0 {
		pick := edgeRNG.Float64() * totalW
		idx := len(cands) - 1
		for k, c := range cands {
			pick -= c.w
			if pick <= 0 {
				idx = k
				break
			}
		}
		c := cands[idx]
		if err := addEdge(c.i, c.j); err != nil {
			return err
		}
		totalW -= c.w
		cands[idx] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
	}
	return nil
}

// sampleEdgesRejection draws the remaining edges by rejection: propose a
// uniform node pair, accept with probability weight/Alpha (the Waxman
// preference normalized by its maximum). Memory is O(edges), independent
// of n². Sparse targets (avg degree ≪ n) keep the duplicate-rejection
// rate negligible; the attempt cap only trips if a caller asks for a
// near-complete graph at web scale, which the paper's workloads never do.
func sampleEdgesRejection(g *graph.Graph, edgeRNG *rng.Source, alpha float64, n, targetEdges int,
	weight func(i, j int) float64, added map[[2]int]bool, addEdge func(i, j int) error) error {
	maxAttempts := 1000 * (targetEdges + 1)
	for attempts := 0; g.NumEdges() < targetEdges; attempts++ {
		if attempts > maxAttempts {
			return fmt.Errorf("topology: rejection sampling stalled at %d/%d edges on %d nodes",
				g.NumEdges(), targetEdges, n)
		}
		i, j := edgeRNG.Intn(n), edgeRNG.Intn(n)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		if added[[2]int{i, j}] {
			continue
		}
		if edgeRNG.Float64()*alpha > weight(i, j) {
			continue
		}
		if err := addEdge(i, j); err != nil {
			return err
		}
	}
	return nil
}

// weightedPath connects all n nodes in one path: from a random start, each
// step extends the path to an unvisited node drawn with probability
// proportional to its Waxman preference from the current end.
func weightedPath(edgeRNG *rng.Source, n int, weight func(i, j int) float64, addEdge func(i, j int) error) error {
	rest := edgeRNG.Perm(n)
	cur := rest[0]
	rest = rest[1:]
	row := make([]float64, 0, n)
	for len(rest) > 0 {
		var total float64
		row, total = weigh(row, cur, rest, weight)
		k := drawWeighted(edgeRNG, row, total)
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

// weigh refills row with weight(u, v) for each v in pool and returns it
// with the weights' sum, added in pool order. A caller that keeps row
// across draws computes each weight once per draw.
func weigh(row []float64, u int, pool []int, weight func(i, j int) float64) ([]float64, float64) {
	row = row[:0]
	total := 0.0
	for _, v := range pool {
		w := weight(u, v)
		row = append(row, w)
		total += w
	}
	return row, total
}

// drawWeighted draws an index into row with probability proportional to
// its weight, total being their sum; the last index when rounding leaves
// the draw unspent.
func drawWeighted(r *rng.Source, row []float64, total float64) int {
	pick := r.Float64() * total
	for k, w := range row {
		pick -= w
		if pick <= 0 {
			return k
		}
	}
	return len(row) - 1
}

// maxDistance returns the largest distance between two of the points.
// Hypot is exact to a few ulps, so only pairs whose squared distance is
// within a relative 1e-9 of the largest can hold it. One pass finds each
// row's largest square; Hypot runs only on the rows that reach the cut.
func maxDistance(xs, ys []float64) float64 {
	rowMax := make([]float64, len(xs))
	maxSq := 0.0
	for i := range xs {
		m := 0.0
		for j := i + 1; j < len(xs); j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			m = max(m, dx*dx+dy*dy)
		}
		rowMax[i], maxSq = m, max(maxSq, m)
	}
	maxDist, cut := 0.0, maxSq*(1-1e-9)
	for i := range xs {
		if rowMax[i] < cut {
			continue
		}
		for j := i + 1; j < len(xs); j++ {
			if dx, dy := xs[i]-xs[j], ys[i]-ys[j]; dx*dx+dy*dy >= cut {
				maxDist = max(maxDist, math.Hypot(dx, dy))
			}
		}
	}
	return maxDist
}

func dist(xs, ys []float64, i, j int) float64 {
	dx, dy := xs[i]-xs[j], ys[i]-ys[j]
	return math.Hypot(dx, dy)
}

// raiseMinDegree adds Waxman-weighted edges until every node has at least
// cfg.MinDegree incident edges, within the edge budget.
func raiseMinDegree(g *graph.Graph, cfg WaxmanConfig, edgeRNG *rng.Source,
	weight func(i, j int) float64, targetEdges int, addEdge func(i, j int) error) error {
	n := cfg.Nodes
	if cfg.MinDegree >= n {
		return fmt.Errorf("topology: min degree %d impossible with %d nodes", cfg.MinDegree, n)
	}
	short := func(v int) bool { return g.Degree(graph.NodeID(v)) < cfg.MinDegree }
	linked := func(u, v int) bool {
		_, ok := g.LinkBetween(graph.NodeID(u), graph.NodeID(v))
		return ok
	}
	// def lists the deficient nodes ascending; an edge can only take its
	// own two ends off it.
	var def, pool []int
	var row []float64
	for v := 0; v < n; v++ {
		if short(v) {
			def = append(def, v)
		}
	}
	for len(def) > 0 {
		if g.NumEdges() >= targetEdges {
			return fmt.Errorf("topology: cannot reach min degree %d within %d edges", cfg.MinDegree, targetEdges)
		}
		u := def[edgeRNG.Intn(len(def))]
		// Prefer partners that are themselves deficient.
		pool = pool[:0]
		for _, v := range def {
			if v != u && !linked(u, v) {
				pool = append(pool, v)
			}
		}
		if len(pool) == 0 {
			for v := 0; v < n; v++ {
				if v != u && !linked(u, v) {
					pool = append(pool, v)
				}
			}
		}
		if len(pool) == 0 {
			return fmt.Errorf("topology: node %d cannot reach min degree %d", u, cfg.MinDegree)
		}
		var total float64
		row, total = weigh(row, u, pool, weight)
		var v int
		if total == 0 {
			v = pool[edgeRNG.Intn(len(pool))]
		} else {
			v = pool[drawWeighted(edgeRNG, row, total)]
		}
		if err := addEdge(u, v); err != nil {
			return err
		}
		def = slices.DeleteFunc(def, func(x int) bool { return (x == u || x == v) && !short(x) })
	}
	return nil
}
