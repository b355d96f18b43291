// Package graph provides the directed-graph substrate used by the DRTP
// routing schemes: nodes, unidirectional links, shortest-path search with
// arbitrary link costs, and hop-count distance tables.
//
// The model follows the paper's conventions: every physical connection
// between two nodes is represented as two unidirectional links with
// independent identities, so per-link state (bandwidth, APLV, Conflict
// Vector) is directional.
package graph

import (
	"fmt"
	"sort"
)

// The identifiers are 32-bit: a Link is 16 bytes, and every adjacency
// list, path and LSET holds 4 bytes per ID.

// NodeID identifies a node (router/switch). Node IDs are dense, starting
// at 0, so they can index slices.
type NodeID int32

// LinkID identifies a unidirectional link. Link IDs are dense, starting at
// 0, so per-link vectors (APLV, Conflict Vector) can be plain slices.
type LinkID int32

// EdgeID identifies an undirected edge (a physical connection). Each edge
// owns exactly two links, one per direction. Edge IDs are dense.
type EdgeID int32

// Invalid sentinel identifiers. Valid IDs are always >= 0.
const (
	InvalidNode NodeID = -1
	InvalidLink LinkID = -1
	InvalidEdge EdgeID = -1
)

// Link is a unidirectional link from one node to another.
type Link struct {
	ID   LinkID
	Edge EdgeID // physical edge this link belongs to
	From NodeID
	To   NodeID
}

// Graph is a directed graph whose links come in edge pairs. It is
// append-only: nodes and edges can be added but not removed, which keeps
// all IDs dense and stable. Removal is unnecessary for the paper's model;
// link failures are represented by masks at higher layers.
type Graph struct {
	nodes int
	links []Link
	// out[n] lists IDs of links leaving node n, in insertion order.
	out [][]LinkID
	// in[n] lists IDs of links entering node n, in insertion order.
	in [][]LinkID
	// reverse[l] is the link in the opposite direction on the same edge.
	reverse []LinkID
	// edges[e] lists the two links of edge e: [forward, backward].
	edges [][2]LinkID
}

// New creates a graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{
		nodes: n,
		out:   make([][]LinkID, n),
		in:    make([][]LinkID, n),
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.nodes }

// NumLinks returns the number of unidirectional links (2x the edges).
func (g *Graph) NumLinks() int { return len(g.links) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddNode appends a new node and returns its ID.
func (g *Graph) AddNode() NodeID {
	id := NodeID(g.nodes)
	g.nodes++
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// AddEdge adds an undirected edge between u and v, materialized as two
// unidirectional links (u->v first, then v->u). It returns the new edge ID.
// Adding a duplicate or self-loop edge is an error.
func (g *Graph) AddEdge(u, v NodeID) (EdgeID, error) {
	if err := g.checkNode(u); err != nil {
		return InvalidEdge, err
	}
	if err := g.checkNode(v); err != nil {
		return InvalidEdge, err
	}
	if u == v {
		return InvalidEdge, fmt.Errorf("graph: self-loop on node %d", u)
	}
	if _, ok := g.LinkBetween(u, v); ok {
		return InvalidEdge, fmt.Errorf("graph: duplicate edge %d-%d", u, v)
	}

	edge := EdgeID(len(g.edges))
	fwd := g.addLink(edge, u, v)
	bwd := g.addLink(edge, v, u)
	g.reverse = append(g.reverse, bwd, fwd)
	g.edges = append(g.edges, [2]LinkID{fwd, bwd})
	return edge, nil
}

func (g *Graph) addLink(edge EdgeID, from, to NodeID) LinkID {
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{ID: id, Edge: edge, From: from, To: to})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	return id
}

// Link returns the link with the given ID.
func (g *Graph) Link(id LinkID) Link {
	return g.links[id]
}

// Reverse returns the link in the opposite direction on the same edge.
func (g *Graph) Reverse(id LinkID) LinkID {
	return g.reverse[id]
}

// EdgeLinks returns the two links (forward, backward) of an edge.
func (g *Graph) EdgeLinks(e EdgeID) (LinkID, LinkID) {
	pair := g.edges[e]
	return pair[0], pair[1]
}

// LinkBetween returns the link from u to v, if one exists. It scans u's
// out-links, a handful on the topologies the schemes run on. Node IDs off
// the wire reach it unchecked (commanded routes), so any u or v outside
// the graph reports no link.
func (g *Graph) LinkBetween(u, v NodeID) (LinkID, bool) {
	if u < 0 || int(u) >= g.nodes {
		return InvalidLink, false
	}
	for _, l := range g.out[u] {
		if g.links[l].To == v {
			return l, true
		}
	}
	return InvalidLink, false
}

// Out returns the IDs of links leaving node n. The returned slice must not
// be modified.
func (g *Graph) Out(n NodeID) []LinkID { return g.out[n] }

// In returns the IDs of links entering node n. The returned slice must not
// be modified.
func (g *Graph) In(n NodeID) []LinkID { return g.in[n] }

// Neighbors returns the distinct nodes adjacent to n, sorted by ID.
func (g *Graph) Neighbors(n NodeID) []NodeID {
	seen := make(map[NodeID]struct{}, len(g.out[n]))
	result := make([]NodeID, 0, len(g.out[n]))
	for _, l := range g.out[n] {
		to := g.links[l].To
		if _, ok := seen[to]; ok {
			continue
		}
		seen[to] = struct{}{}
		result = append(result, to)
	}
	sort.Slice(result, func(i, j int) bool { return result[i] < result[j] })
	return result
}

// Degree returns the number of edges incident to node n.
func (g *Graph) Degree(n NodeID) int { return len(g.out[n]) }

// AvgDegree returns the average node degree (2*E/V), or 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.nodes == 0 {
		return 0
	}
	return 2 * float64(len(g.edges)) / float64(g.nodes)
}

// Connected reports whether every node is reachable from node 0 following
// directed links. Because edges always come in bidirectional pairs, this is
// equivalent to undirected connectivity.
func (g *Graph) Connected() bool {
	if g.nodes == 0 {
		return true
	}
	visited := make([]bool, g.nodes)
	stack := []NodeID{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, l := range g.out[n] {
			to := g.links[l].To
			if !visited[to] {
				visited[to] = true
				count++
				stack = append(stack, to)
			}
		}
	}
	return count == g.nodes
}

func (g *Graph) checkNode(n NodeID) error {
	if n < 0 || int(n) >= g.nodes {
		return fmt.Errorf("graph: node %d out of range [0,%d)", n, g.nodes)
	}
	return nil
}
