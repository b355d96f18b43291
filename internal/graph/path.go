package graph

import (
	"fmt"
	"strconv"
	"strings"
)

// Path is a loop-free sequence of links from a source to a destination.
// The zero value is the empty path.
type Path struct {
	links []LinkID
}

// NewPath builds a path from the given links, validating contiguity
// against the graph.
func NewPath(g *Graph, links []LinkID) (Path, error) {
	for i := 1; i < len(links); i++ {
		prev, cur := g.Link(links[i-1]), g.Link(links[i])
		if prev.To != cur.From {
			return Path{}, fmt.Errorf("graph: links %d and %d are not contiguous", prev.ID, cur.ID)
		}
	}
	copied := make([]LinkID, len(links))
	copy(copied, links)
	return Path{links: copied}, nil
}

// PathFromNodes builds a path visiting the given nodes in order, resolving
// each consecutive pair to the connecting link.
func PathFromNodes(g *Graph, nodes []NodeID) (Path, error) {
	if len(nodes) < 2 {
		return Path{}, nil
	}
	links := make([]LinkID, 0, len(nodes)-1)
	for i := 1; i < len(nodes); i++ {
		l, ok := g.LinkBetween(nodes[i-1], nodes[i])
		if !ok {
			return Path{}, fmt.Errorf("graph: no link %d->%d", nodes[i-1], nodes[i])
		}
		links = append(links, l)
	}
	return Path{links: links}, nil
}

// Empty reports whether the path has no links.
func (p Path) Empty() bool { return len(p.links) == 0 }

// Hops returns the number of links in the path.
func (p Path) Hops() int { return len(p.links) }

// Links returns the path's links in order. The caller must not modify the
// returned slice.
func (p Path) Links() []LinkID { return p.links }

// Source returns the first node of the path.
func (p Path) Source(g *Graph) NodeID {
	if len(p.links) == 0 {
		return InvalidNode
	}
	return g.Link(p.links[0]).From
}

// Dest returns the last node of the path.
func (p Path) Dest(g *Graph) NodeID {
	if len(p.links) == 0 {
		return InvalidNode
	}
	return g.Link(p.links[len(p.links)-1]).To
}

// Nodes returns the node sequence visited by the path, including both
// endpoints.
func (p Path) Nodes(g *Graph) []NodeID {
	if len(p.links) == 0 {
		return nil
	}
	nodes := make([]NodeID, 0, len(p.links)+1)
	nodes = append(nodes, g.Link(p.links[0]).From)
	for _, l := range p.links {
		nodes = append(nodes, g.Link(l).To)
	}
	return nodes
}

// Contains reports whether the path traverses the given link.
func (p Path) Contains(l LinkID) bool {
	for _, pl := range p.links {
		if pl == l {
			return true
		}
	}
	return false
}

// ContainsEdge reports whether the path traverses either direction of the
// given edge.
func (p Path) ContainsEdge(g *Graph, e EdgeID) bool {
	for _, pl := range p.links {
		if g.Link(pl).Edge == e {
			return true
		}
	}
	return false
}

// LinkSet returns the path's links as a set (the paper's LSET).
func (p Path) LinkSet() map[LinkID]struct{} {
	set := make(map[LinkID]struct{}, len(p.links))
	for _, l := range p.links {
		set[l] = struct{}{}
	}
	return set
}

// SharedLinks returns the number of links the path shares with other.
func (p Path) SharedLinks(other Path) int {
	set := other.LinkSet()
	shared := 0
	for _, l := range p.links {
		if _, ok := set[l]; ok {
			shared++
		}
	}
	return shared
}

// OverlapsAny reports whether the path shares a link with any of others.
func (p Path) OverlapsAny(others []Path) bool {
	for _, other := range others {
		if p.SharedLinks(other) > 0 {
			return true
		}
	}
	return false
}

// SharedEdges returns the number of physical edges the path shares with
// other, counting each edge once even if both directions appear.
// Routes are tens of links long, so the edges are compared by scan.
func (p Path) SharedEdges(g *Graph, other Path) int {
	shared := 0
	for i, l := range p.links {
		e := g.Link(l).Edge
		earlier := Path{links: p.links[:i]}
		if !earlier.ContainsEdge(g, e) && other.ContainsEdge(g, e) {
			shared++
		}
	}
	return shared
}

// String renders the path as "a->b->c" using node IDs, or "<empty>".
func (p Path) String() string {
	if len(p.links) == 0 {
		return "<empty>"
	}
	var b strings.Builder
	for i, l := range p.links {
		if i == 0 {
			b.WriteString("L")
		} else {
			b.WriteString(",L")
		}
		b.WriteString(strconv.Itoa(int(l)))
	}
	return b.String()
}

// Format renders the path as a node sequence "0->3->7" for diagnostics.
func (p Path) Format(g *Graph) string {
	nodes := p.Nodes(g)
	if len(nodes) == 0 {
		return "<empty>"
	}
	parts := make([]string, len(nodes))
	for i, n := range nodes {
		parts[i] = strconv.Itoa(int(n))
	}
	return strings.Join(parts, "->")
}
