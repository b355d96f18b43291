package graph

import (
	"math"
	"testing"
)

// buildDiamond returns the 4-node diamond used across tests:
//
//	0 - 1
//	|   |
//	2 - 3
//
// Edges in insertion order: 0-1, 0-2, 1-3, 2-3.
func buildDiamond(t *testing.T) *Graph {
	t.Helper()
	g := New(4)
	for _, e := range [][2]NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if _, err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	return g
}

func TestNewGraphEmpty(t *testing.T) {
	g := New(0)
	if g.NumNodes() != 0 || g.NumLinks() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has nodes=%d links=%d edges=%d", g.NumNodes(), g.NumLinks(), g.NumEdges())
	}
	if !g.Connected() {
		t.Fatal("empty graph should count as connected")
	}
}

func TestNewGraphNegativeNodes(t *testing.T) {
	g := New(-5)
	if g.NumNodes() != 0 {
		t.Fatalf("got %d nodes, want 0", g.NumNodes())
	}
}

func TestAddNode(t *testing.T) {
	g := New(2)
	id := g.AddNode()
	if id != 2 {
		t.Fatalf("AddNode returned %d, want 2", id)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
	if _, err := g.AddEdge(2, 0); err != nil {
		t.Fatalf("edge to new node: %v", err)
	}
}

func TestAddEdgeCreatesLinkPair(t *testing.T) {
	g := New(2)
	e, err := g.AddEdge(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumLinks() != 2 || g.NumEdges() != 1 {
		t.Fatalf("links=%d edges=%d, want 2,1", g.NumLinks(), g.NumEdges())
	}
	fwd, bwd := g.EdgeLinks(e)
	if got := g.Link(fwd); got.From != 0 || got.To != 1 || got.Edge != e {
		t.Fatalf("forward link = %+v", got)
	}
	if got := g.Link(bwd); got.From != 1 || got.To != 0 || got.Edge != e {
		t.Fatalf("backward link = %+v", got)
	}
	if g.Reverse(fwd) != bwd || g.Reverse(bwd) != fwd {
		t.Fatal("Reverse does not pair the two directions")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	if _, err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := g.AddEdge(0, 3); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := g.AddEdge(-1, 0); err == nil {
		t.Error("negative node accepted")
	}
	if _, err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("first edge: %v", err)
	}
	if _, err := g.AddEdge(0, 1); err == nil {
		t.Error("duplicate edge accepted")
	}
	if _, err := g.AddEdge(1, 0); err == nil {
		t.Error("duplicate reversed edge accepted")
	}
}

func TestLinkBetween(t *testing.T) {
	g := buildDiamond(t)
	l, ok := g.LinkBetween(1, 3)
	if !ok {
		t.Fatal("LinkBetween(1,3) not found")
	}
	if link := g.Link(l); link.From != 1 || link.To != 3 {
		t.Fatalf("LinkBetween(1,3) = %+v", link)
	}
	if _, ok := g.LinkBetween(0, 3); ok {
		t.Fatal("LinkBetween(0,3) should not exist")
	}
	// Commanded routes hand it node IDs straight off the wire.
	for _, p := range [][2]NodeID{{-1, 0}, {4, 0}, {math.MaxInt32, 1}, {0, -1}, {0, 4}, {InvalidNode, InvalidNode}} {
		if l, ok := g.LinkBetween(p[0], p[1]); ok || l != InvalidLink {
			t.Fatalf("LinkBetween(%d,%d) = %d, %v for a node outside the graph", p[0], p[1], l, ok)
		}
	}
}

func TestOutInNeighbors(t *testing.T) {
	g := buildDiamond(t)
	if got := len(g.Out(0)); got != 2 {
		t.Fatalf("Out(0) has %d links, want 2", got)
	}
	if got := len(g.In(3)); got != 2 {
		t.Fatalf("In(3) has %d links, want 2", got)
	}
	nbrs := g.Neighbors(0)
	if len(nbrs) != 2 || nbrs[0] != 1 || nbrs[1] != 2 {
		t.Fatalf("Neighbors(0) = %v, want [1 2]", nbrs)
	}
	if g.Degree(0) != 2 {
		t.Fatalf("Degree(0) = %d, want 2", g.Degree(0))
	}
}

func TestAvgDegree(t *testing.T) {
	g := buildDiamond(t)
	if got := g.AvgDegree(); got != 2 {
		t.Fatalf("AvgDegree = %v, want 2", got)
	}
	if got := New(0).AvgDegree(); got != 0 {
		t.Fatalf("empty AvgDegree = %v, want 0", got)
	}
}

func TestConnected(t *testing.T) {
	g := buildDiamond(t)
	if !g.Connected() {
		t.Fatal("diamond should be connected")
	}
	g.AddNode() // isolated node
	if g.Connected() {
		t.Fatal("graph with isolated node reported connected")
	}
}

func TestOutSliceNotAliased(t *testing.T) {
	// Out returns internal storage; verify documented read-only usage is
	// safe across AddEdge (append may reallocate but existing IDs stay).
	g := New(3)
	if _, err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	before := g.Out(0)
	if _, err := g.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if len(before) != 1 {
		t.Fatalf("snapshot changed length: %d", len(before))
	}
	if len(g.Out(0)) != 2 {
		t.Fatalf("Out(0) = %d links, want 2", len(g.Out(0)))
	}
}

// TestLinkSetBits holds the bitset to a []bool model across word boundaries.
func TestLinkSetBits(t *testing.T) {
	const n = 130
	s, model := NewLinkSet(n), make([]bool, n)
	for i, l := range []LinkID{0, 63, 64, 129, 5, 64, 0} {
		if i%3 == 2 {
			s.Remove(l)
			model[l] = false
		} else {
			s.Add(l)
			model[l] = true
		}
		for k := range model {
			if s.Has(LinkID(k)) != model[k] {
				t.Fatalf("after step %d: Has(%d) = %v, want %v", i, k, s.Has(LinkID(k)), model[k])
			}
		}
	}
}
