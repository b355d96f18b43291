package router

import (
	"fmt"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/transport"
)

// Cluster runs one router per node of a topology over a shared transport.
type Cluster struct {
	routers []*Router
}

// NewCluster starts a router for every node in cfg.Graph. The Node field
// of cfg is ignored. On error, already-started routers are closed.
func NewCluster(cfg Config, at transport.Attacher) (*Cluster, error) {
	cfg.setDefaults()
	if cfg.Graph == nil {
		return nil, fmt.Errorf("router: nil graph")
	}
	c := &Cluster{routers: make([]*Router, 0, cfg.Graph.NumNodes())}
	for n := 0; n < cfg.Graph.NumNodes(); n++ {
		ep, err := at.Attach(graph.NodeID(n))
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("router: attach node %d: %w", n, err)
		}
		nodeCfg := cfg
		nodeCfg.Node = graph.NodeID(n)
		r, err := New(nodeCfg, ep)
		if err != nil {
			_ = ep.Close()
			c.Close()
			return nil, fmt.Errorf("router: start node %d: %w", n, err)
		}
		c.routers = append(c.routers, r)
	}
	return c, nil
}

// Router returns the router for a node.
func (c *Cluster) Router(n graph.NodeID) *Router { return c.routers[n] }

// Size returns the number of routers.
func (c *Cluster) Size() int { return len(c.routers) }

// FailEdge simulates a bidirectional link failure between two adjacent
// nodes: both ends stop hearing each other's hellos and detect the
// failure independently.
func (c *Cluster) FailEdge(u, v graph.NodeID) {
	c.routers[u].FailLink(v)
	c.routers[v].FailLink(u)
}

// Close stops every router.
func (c *Cluster) Close() {
	for _, r := range c.routers {
		if r != nil {
			_ = r.Close()
		}
	}
}
