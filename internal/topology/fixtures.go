package topology

import (
	"fmt"

	"github.com/rtcl/drtp/internal/graph"
)

// Grid builds a w x h mesh: node (r,c) has ID r*w+c and is connected to its
// horizontal and vertical neighbors. The paper's Figure 1 uses the 3x3 case.
func Grid(w, h int) (*graph.Graph, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("topology: invalid grid %dx%d", w, h)
	}
	g := graph.New(w * h)
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			id := graph.NodeID(r*w + c)
			if c+1 < w {
				if _, err := g.AddEdge(id, id+1); err != nil {
					return nil, err
				}
			}
			if r+1 < h {
				if _, err := g.AddEdge(id, graph.NodeID((r+1)*w+c)); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// Ring builds a cycle of n nodes.
func Ring(n int) (*graph.Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("topology: ring needs >= 3 nodes, got %d", n)
	}
	g := graph.New(n)
	for i := 0; i < n; i++ {
		if _, err := g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n)); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Line builds a path graph of n nodes.
func Line(n int) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: line needs >= 2 nodes, got %d", n)
	}
	g := graph.New(n)
	for i := 0; i < n-1; i++ {
		if _, err := g.AddEdge(graph.NodeID(i), graph.NodeID(i+1)); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// FromEdgeList builds a graph with n nodes and the given undirected edges.
func FromEdgeList(n int, edges [][2]int) (*graph.Graph, error) {
	g := graph.New(n)
	for _, e := range edges {
		u, v := graph.NodeID(e[0]), graph.NodeID(e[1])
		if int(u) != e[0] || int(v) != e[1] {
			return nil, fmt.Errorf("topology: edge %d-%d names a node ID past 32 bits", e[0], e[1])
		}
		if _, err := g.AddEdge(u, v); err != nil {
			return nil, err
		}
	}
	return g, nil
}
