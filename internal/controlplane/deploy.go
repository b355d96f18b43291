package controlplane

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/router"
	"github.com/rtcl/drtp/internal/telemetry"
)

// DeployConfig is the one configuration of a control plane: one
// coordinator and a router+agent runtime per topology node. Every service
// is built from it (NewCoordinator, NewNodeRuntime), whether Deploy
// starts them all in one process or cmd/drtpnode starts one per process,
// so the services always agree on the bandwidth model, the scheme and
// the timers. The coordinator's address is CoordinatorID(Graph).
type DeployConfig struct {
	// Graph is the static topology.
	Graph *graph.Graph
	// Capacity and UnitBW set the routers' bandwidth model; UnitBW
	// (default 1) is also what every connection charges against its
	// tenant's MaxBandwidth.
	Capacity int
	UnitBW   int
	// Scheme selects the routers' backup routing: D-LSR (default) or
	// P-LSR.
	Scheme router.BackupScheme
	// Backups is the number of backup channels per connection (default
	// 1).
	Backups int
	// HeartbeatInterval is the agents' beacon period and the
	// coordinator's liveness tick (default 25ms); HeartbeatMiss is how
	// many silent intervals declare a node dead (default 2, the
	// dependability bound in EXPERIMENTS.md X8).
	HeartbeatInterval time.Duration
	HeartbeatMiss     int
	// RPCTimeout bounds one attempt of a coordinator round trip, a node
	// command (default 2s), and RetryLimit is the attempts per round
	// trip (default 3). Command retransmissions reuse their
	// sequence number, so agents replay results instead of re-executing.
	// An agent's client request gets RetryLimit attempts too, within a
	// budget that outlasts the coordinator's own round trips.
	RPCTimeout time.Duration
	RetryLimit int
	// Quotas maps tenant names to their admission quotas; a tenant not
	// listed is unlimited.
	Quotas map[string]Quota
	// Tenants names each node agent's client-API tenant (default
	// "default").
	Tenants map[graph.NodeID]string
	// Router carries the routers' own settings: HelloInterval,
	// HelloMiss, LSInterval, SetupTimeout, RetryLimit and NbrRecovery.
	// Its other fields are ignored; RouterConfig fills them from this
	// config.
	Router router.Config
	// Logger and Telemetry are shared by every service; Metrics is
	// passed to the routers and the coordinator (its per-stage setup
	// latency, drtp_cp_stage_seconds{stage}: admission, establish and
	// total).
	Logger    *slog.Logger
	Telemetry *telemetry.Tracer
	Metrics   *telemetry.Registry
}

// setDefaults fills the zero fields with their defaults and rejects a
// config without a graph.
func (c *DeployConfig) setDefaults() error {
	if c.Graph == nil {
		return errors.New("controlplane: nil graph")
	}
	if c.UnitBW == 0 {
		c.UnitBW = 1
	}
	if c.Scheme == 0 {
		c.Scheme = router.DLSR
	}
	if c.Backups <= 0 {
		c.Backups = 1
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 25 * time.Millisecond
	}
	if c.HeartbeatMiss == 0 {
		c.HeartbeatMiss = 2
	}
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 2 * time.Second
	}
	if c.RetryLimit == 0 {
		c.RetryLimit = 3
	}
	if c.Logger == nil {
		c.Logger = telemetry.DiscardLogger()
	}
	return nil
}

// RouterConfig is node's router.Config: Router's own settings, with the
// node, the topology, the bandwidth model, the scheme, the backups and
// the sinks taken from c.
func (c DeployConfig) RouterConfig(node graph.NodeID) router.Config {
	_ = c.setDefaults() // a nil graph is router.New's to report
	rc := c.Router
	rc.Node = node
	rc.Graph = c.Graph
	rc.Capacity = c.Capacity
	rc.UnitBW = c.UnitBW
	rc.Scheme = c.Scheme
	rc.Backups = c.Backups
	rc.Logger = c.Logger
	rc.Telemetry = c.Telemetry
	rc.Metrics = c.Metrics
	return rc
}

// NodeRuntime is one deployed node: its router and its agent.
type NodeRuntime struct {
	Router *router.Router
	Agent  *Agent
}

// NewNodeRuntime attaches node's endpoint, divides it between a router
// and its agent, and starts both. The split (agentBound) happens where
// the endpoint delivers each message, before anything reads it, so no
// goroutine relays between the transport and either reader.
func NewNodeRuntime(cfg DeployConfig, node graph.NodeID, at Attacher) (*NodeRuntime, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	ep, err := at.Attach(node)
	if err != nil {
		return nil, fmt.Errorf("controlplane: attach node %d: %w", node, err)
	}
	in := ep.Split(agentBound)
	r, err := router.New(cfg.RouterConfig(node), ep)
	if err != nil {
		_ = ep.Close()
		return nil, err
	}
	return &NodeRuntime{Router: r, Agent: newAgent(cfg, node, r, ep, in)}, nil
}

// Ready is the runtime's readiness condition (see Agent.Ready).
func (n *NodeRuntime) Ready() (bool, string) { return n.Agent.Ready() }

// Deployment is a running in-process control plane.
type Deployment struct {
	Coord *Coordinator
	nodes map[graph.NodeID]*NodeRuntime
}

// Deploy starts the full control plane over the attacher: the
// coordinator, then every node's runtime. On error, everything already
// started is torn down.
func Deploy(cfg DeployConfig, at Attacher) (*Deployment, error) {
	d := &Deployment{nodes: make(map[graph.NodeID]*NodeRuntime)}
	ok := false
	defer func() {
		if !ok {
			d.Close()
		}
	}()
	var err error
	if d.Coord, err = NewCoordinator(cfg, at); err != nil {
		return nil, err
	}
	for n := 0; n < cfg.Graph.NumNodes(); n++ {
		node, err := NewNodeRuntime(cfg, graph.NodeID(n), at)
		if err != nil {
			return nil, err
		}
		d.nodes[graph.NodeID(n)] = node
	}
	ok = true
	return d, nil
}

// Node returns one node's runtime.
func (d *Deployment) Node(n graph.NodeID) *NodeRuntime { return d.nodes[n] }

// Size reports the number of node runtimes.
func (d *Deployment) Size() int { return len(d.nodes) }

// WaitSynced blocks until every agent is registered and every router
// has installed a link-state advert, or until it has waited timeout.
func (d *Deployment) WaitSynced(timeout time.Duration) error {
	const poll = 2 * time.Millisecond
	for waited := time.Duration(0); ; waited += poll {
		ready := true
		for _, n := range d.nodes {
			ready = ready && n.Agent.Registered() && n.Router.Synced()
		}
		if ready {
			return nil
		}
		if waited >= timeout {
			return fmt.Errorf("controlplane: deployment not synced after %v", timeout)
		}
		//drtplint:ignore determinism this waits on goroutines, not on protocol time, which a manual clock would never move here
		time.Sleep(poll)
	}
}

// Close tears the deployment down: agents (announcing leaves), routers,
// then the coordinator.
func (d *Deployment) Close() {
	for _, n := range d.nodes {
		_ = n.Agent.Close()
	}
	for _, n := range d.nodes {
		_ = n.Router.Close()
	}
	if d.Coord != nil {
		_ = d.Coord.Close()
	}
}
