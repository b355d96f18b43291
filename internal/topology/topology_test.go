package topology

import (
	"math"
	"math/rand"
	"os"
	"testing"
	"testing/quick"

	"github.com/rtcl/drtp/internal/graph"
)

func TestGrid3x3(t *testing.T) {
	g, err := Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 9 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// 3x3 mesh: 12 edges = 24 unidirectional links (the paper's Fig. 1
	// counts 24).
	if g.NumEdges() != 12 || g.NumLinks() != 24 {
		t.Fatalf("edges=%d links=%d, want 12,24", g.NumEdges(), g.NumLinks())
	}
	if !g.Connected() {
		t.Fatal("grid not connected")
	}
	// Corner degree 2, edge-center degree 3, middle degree 4.
	if g.Degree(0) != 2 || g.Degree(1) != 3 || g.Degree(4) != 4 {
		t.Fatalf("degrees: %d %d %d", g.Degree(0), g.Degree(1), g.Degree(4))
	}
}

func TestGridInvalid(t *testing.T) {
	if _, err := Grid(0, 3); err == nil {
		t.Fatal("Grid(0,3) accepted")
	}
}

func TestRing(t *testing.T) {
	g, err := Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 5 || !g.Connected() {
		t.Fatalf("edges=%d connected=%v", g.NumEdges(), g.Connected())
	}
	for i := 0; i < 5; i++ {
		if g.Degree(graph.NodeID(i)) != 2 {
			t.Fatalf("node %d degree %d", i, g.Degree(graph.NodeID(i)))
		}
	}
	if _, err := Ring(2); err == nil {
		t.Fatal("Ring(2) accepted")
	}
}

func TestLine(t *testing.T) {
	g, err := Line(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 || !g.Connected() {
		t.Fatalf("edges=%d connected=%v", g.NumEdges(), g.Connected())
	}
	if _, err := Line(1); err == nil {
		t.Fatal("Line(1) accepted")
	}
}

func TestFromEdgeList(t *testing.T) {
	g, err := FromEdgeList(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if _, err := FromEdgeList(2, [][2]int{{0, 5}}); err == nil {
		t.Fatal("bad edge list accepted")
	}
	// Node IDs are 32-bit: 2³²+1 is not node 1.
	if _, err := FromEdgeList(2, [][2]int{{0, 1<<32 + 1}}); err == nil {
		t.Fatal("edge to node 2^32+1 accepted")
	}
}

func TestWaxmanPaperConfigs(t *testing.T) {
	for _, degree := range []float64{3, 4} {
		g, err := Waxman(WaxmanConfig{Nodes: 60, AvgDegree: degree, Seed: 1})
		if err != nil {
			t.Fatalf("E=%v: %v", degree, err)
		}
		if g.NumNodes() != 60 {
			t.Fatalf("nodes = %d", g.NumNodes())
		}
		wantEdges := int(math.Round(60 * degree / 2))
		if g.NumEdges() != wantEdges {
			t.Fatalf("E=%v: edges = %d, want %d", degree, g.NumEdges(), wantEdges)
		}
		if !g.Connected() {
			t.Fatalf("E=%v: not connected", degree)
		}
		if got := g.AvgDegree(); math.Abs(got-degree) > 0.05 {
			t.Fatalf("E=%v: avg degree %v", degree, got)
		}
	}
}

func TestWaxmanMinDegree(t *testing.T) {
	g, err := Waxman(WaxmanConfig{Nodes: 60, AvgDegree: 3, MinDegree: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.NumNodes(); i++ {
		if d := g.Degree(graph.NodeID(i)); d < 2 {
			t.Fatalf("node %d degree %d < 2", i, d)
		}
	}
	if g.NumEdges() != 90 {
		t.Fatalf("edges = %d, want 90", g.NumEdges())
	}
}

func TestWaxmanDeterministic(t *testing.T) {
	cfg := WaxmanConfig{Nodes: 40, AvgDegree: 3, MinDegree: 2, Seed: 99}
	a, err := Waxman(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Waxman(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("edge counts differ for identical seeds")
	}
	for l := 0; l < a.NumLinks(); l++ {
		if a.Link(graph.LinkID(l)) != b.Link(graph.LinkID(l)) {
			t.Fatalf("link %d differs", l)
		}
	}
}

// TestWaxmanLargeRejectionSampler exercises the web-scale phase-3 path
// (nodes > waxmanEnumerationMax): same structural guarantees as the
// enumerating sampler — exact edge count, connectivity, min degree — and
// seed-determinism, without materializing the O(n²) candidate list.
func TestWaxmanLargeRejectionSampler(t *testing.T) {
	cfg := WaxmanConfig{Nodes: waxmanEnumerationMax + 200, AvgDegree: 6, MinDegree: 2, Seed: 7}
	g, err := Waxman(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantEdges := int(math.Round(float64(cfg.Nodes) * cfg.AvgDegree / 2))
	if g.NumEdges() != wantEdges {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), wantEdges)
	}
	if !g.Connected() {
		t.Fatal("not connected")
	}
	for i := 0; i < g.NumNodes(); i++ {
		if d := g.Degree(graph.NodeID(i)); d < cfg.MinDegree {
			t.Fatalf("node %d degree %d < %d", i, d, cfg.MinDegree)
		}
	}
	b, err := Waxman(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < g.NumLinks(); l++ {
		if g.Link(graph.LinkID(l)) != b.Link(graph.LinkID(l)) {
			t.Fatalf("link %d differs between identical seeds", l)
		}
	}
}

func TestWaxmanSeedsDiffer(t *testing.T) {
	a, err := Waxman(WaxmanConfig{Nodes: 40, AvgDegree: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Waxman(WaxmanConfig{Nodes: 40, AvgDegree: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for l := 0; l < a.NumLinks() && l < b.NumLinks(); l++ {
		if a.Link(graph.LinkID(l)) != b.Link(graph.LinkID(l)) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestWaxmanErrors(t *testing.T) {
	if _, err := Waxman(WaxmanConfig{Nodes: 1, AvgDegree: 3}); err == nil {
		t.Error("1 node accepted")
	}
	if _, err := Waxman(WaxmanConfig{Nodes: 10, AvgDegree: 0.5}); err == nil {
		t.Error("degree too low to connect accepted")
	}
	if _, err := Waxman(WaxmanConfig{Nodes: 10, AvgDegree: 20}); err == nil {
		t.Error("degree above complete graph accepted")
	}
	if _, err := Waxman(WaxmanConfig{Nodes: 10, AvgDegree: 3, MinDegree: 10}); err == nil {
		t.Error("impossible min degree accepted")
	}
}

func TestWaxmanValidProperty(t *testing.T) {
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(40)
		degree := 2.5 + r.Float64()*2
		g, err := Waxman(WaxmanConfig{Nodes: n, AvgDegree: degree, MinDegree: 2, Seed: seed})
		if err != nil {
			// Infeasible min-degree within budget is a legitimate error
			// for tight configs; everything else must succeed.
			return int(math.Round(float64(n)*degree/2)) < n
		}
		for i := 0; i < n; i++ {
			if g.Degree(graph.NodeID(i)) < 2 {
				return false
			}
		}
		return g.Connected() && g.NumNodes() == n &&
			g.NumEdges() == int(math.Round(float64(n)*degree/2))
	}
	// Found by this property: 32 nodes, 40 edges, whose spanning tree had
	// more leaves than 9 spare edges can pair up.
	if !property(-6318998676484391055) {
		t.Fatal("seed -6318998676484391055 failed")
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g, err := Waxman(WaxmanConfig{Nodes: 20, AvgDegree: 3, MinDegree: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/topo.json"
	if err := SaveJSON(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d",
			got.NumNodes(), got.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	// Link IDs must be preserved exactly (the distributed routers depend
	// on identical numbering across processes).
	for l := 0; l < g.NumLinks(); l++ {
		if got.Link(graph.LinkID(l)) != g.Link(graph.LinkID(l)) {
			t.Fatalf("link %d differs after round trip", l)
		}
	}
}

func TestLoadJSONErrors(t *testing.T) {
	if _, err := LoadJSON(t.TempDir() + "/missing.json"); err == nil {
		t.Fatal("missing file accepted")
	}
	path := t.TempDir() + "/bad.json"
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJSON(path); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g, err := BarabasiAlbert(BarabasiAlbertConfig{Nodes: 60, M: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 60 || !g.Connected() {
		t.Fatalf("nodes=%d connected=%v", g.NumNodes(), g.Connected())
	}
	// Seed clique of 3 nodes (3 edges) + 2 per arrival.
	wantEdges := 3 + 2*(60-3)
	if g.NumEdges() != wantEdges {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), wantEdges)
	}
	// Scale-free: the max degree should far exceed the average.
	maxDeg := 0
	for i := 0; i < g.NumNodes(); i++ {
		if d := g.Degree(graph.NodeID(i)); d > maxDeg {
			maxDeg = d
		}
	}
	if float64(maxDeg) < 2*g.AvgDegree() {
		t.Fatalf("max degree %d vs avg %.2f: no hubs formed", maxDeg, g.AvgDegree())
	}
}

func TestBarabasiAlbertDeterministic(t *testing.T) {
	cfg := BarabasiAlbertConfig{Nodes: 30, M: 2, Seed: 9}
	a, err := BarabasiAlbert(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BarabasiAlbert(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < a.NumLinks(); l++ {
		if a.Link(graph.LinkID(l)) != b.Link(graph.LinkID(l)) {
			t.Fatalf("link %d differs", l)
		}
	}
}

func TestBarabasiAlbertErrors(t *testing.T) {
	if _, err := BarabasiAlbert(BarabasiAlbertConfig{Nodes: 10, M: 0}); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := BarabasiAlbert(BarabasiAlbertConfig{Nodes: 3, M: 2}); err == nil {
		t.Error("too few nodes accepted")
	}
}
