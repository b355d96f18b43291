package controlplane

import (
	"fmt"
	"log/slog"
	"time"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/router"
	"github.com/rtcl/drtp/internal/telemetry"
)

// DeployConfig parameterizes an in-process control-plane deployment:
// one route finder, one coordinator, and a router+agent runtime per
// topology node, all over one transport. Tests, benchmarks and the
// chaos conformance suite use it; cmd/drtpnode wires the same pieces
// per process for real multi-process deployments.
type DeployConfig struct {
	// Graph is the static topology.
	Graph *graph.Graph
	// Capacity and UnitBW set the bandwidth model (router defaults).
	Capacity int
	UnitBW   int
	// Scheme selects D-LSR (default) or P-LSR.
	Scheme router.BackupScheme
	// Backups is the number of backup channels per connection.
	Backups int
	// HeartbeatInterval and HeartbeatMiss set the liveness detector.
	HeartbeatInterval time.Duration
	HeartbeatMiss     int
	// RPCTimeout and RetryLimit set the coordinator's internal RPC
	// budget and the agents' client-API budget.
	RPCTimeout time.Duration
	RetryLimit int
	// Quotas and DefaultQuota set tenant admission control.
	Quotas       map[string]Quota
	DefaultQuota Quota
	// Tenants names each node agent's client-API tenant (default
	// "default" everywhere).
	Tenants map[graph.NodeID]string
	// Router carries per-router overrides (HelloInterval, HelloMiss,
	// LSInterval, SetupTimeout, RetryLimit, RetrySeed, NbrRecovery);
	// Node, Graph, Mirrors and the bandwidth model are filled in per
	// node by Deploy.
	Router router.Config
	// Logger and Telemetry are shared by every component; Metrics is
	// passed to the routers and the coordinator (its per-stage setup
	// latency, drtp_cp_stage_seconds), as cmd/drtpnode wires them.
	Logger    *slog.Logger
	Telemetry *telemetry.Tracer
	Metrics   *telemetry.Registry
}

// NodeRuntime is one deployed node: its router and its agent.
type NodeRuntime struct {
	Router *router.Router
	Agent  *Agent
}

// Ready is the runtime's readiness condition (see Agent.Ready).
func (n *NodeRuntime) Ready() (bool, string) { return n.Agent.Ready() }

// Deployment is a running in-process control plane.
type Deployment struct {
	RF    *RouteFinder
	Coord *Coordinator
	nodes map[graph.NodeID]*NodeRuntime
	g     *graph.Graph
}

// Deploy starts the full control plane over the attacher. On error,
// everything already started is torn down.
func Deploy(cfg DeployConfig, at Attacher) (*Deployment, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("controlplane: nil graph")
	}
	d := &Deployment{nodes: make(map[graph.NodeID]*NodeRuntime), g: cfg.Graph}
	ok := false
	defer func() {
		if !ok {
			d.Close()
		}
	}()

	rfEP, err := at.Attach(RouteFinderID(cfg.Graph))
	if err != nil {
		return nil, fmt.Errorf("controlplane: attach route finder: %w", err)
	}
	d.RF, err = NewRouteFinder(RouteFinderConfig{
		Graph: cfg.Graph, Capacity: cfg.Capacity, UnitBW: cfg.UnitBW,
		Scheme: cfg.Scheme, Backups: cfg.Backups,
		Logger: cfg.Logger, Telemetry: cfg.Telemetry,
	}, rfEP)
	if err != nil {
		_ = rfEP.Close()
		return nil, err
	}

	coordEP, err := at.Attach(CoordinatorID(cfg.Graph))
	if err != nil {
		return nil, fmt.Errorf("controlplane: attach coordinator: %w", err)
	}
	d.Coord, err = NewCoordinator(CoordinatorConfig{
		Graph: cfg.Graph, RouteFinder: RouteFinderID(cfg.Graph), UnitBW: cfg.UnitBW,
		HeartbeatInterval: cfg.HeartbeatInterval, HeartbeatMiss: cfg.HeartbeatMiss,
		RPCTimeout: cfg.RPCTimeout, RetryLimit: cfg.RetryLimit,
		Quotas: cfg.Quotas, DefaultQuota: cfg.DefaultQuota,
		Logger: cfg.Logger, Telemetry: cfg.Telemetry, Metrics: cfg.Metrics,
	}, coordEP)
	if err != nil {
		_ = coordEP.Close()
		return nil, err
	}

	for n := 0; n < cfg.Graph.NumNodes(); n++ {
		node := graph.NodeID(n)
		ep, err := at.Attach(node)
		if err != nil {
			return nil, fmt.Errorf("controlplane: attach node %d: %w", n, err)
		}
		routerEP, agentCh := SplitEndpoint(ep)
		rcfg := cfg.Router
		rcfg.Node = node
		rcfg.Graph = cfg.Graph
		rcfg.Capacity = cfg.Capacity
		rcfg.UnitBW = cfg.UnitBW
		rcfg.Scheme = cfg.Scheme
		rcfg.Backups = cfg.Backups
		rcfg.Mirrors = []graph.NodeID{RouteFinderID(cfg.Graph)}
		rcfg.Logger = cfg.Logger
		rcfg.Telemetry = cfg.Telemetry
		rcfg.Metrics = cfg.Metrics
		r, err := router.New(rcfg, routerEP)
		if err != nil {
			_ = routerEP.Close()
			return nil, err
		}
		a, err := NewAgent(AgentConfig{
			Node: node, Graph: cfg.Graph, Coordinator: CoordinatorID(cfg.Graph),
			Tenant: cfg.Tenants[node], HeartbeatInterval: cfg.HeartbeatInterval,
			RequestTimeout: cfg.RPCTimeout * time.Duration(max(cfg.RetryLimit, 1)+2),
			RetryLimit:     cfg.RetryLimit, Logger: cfg.Logger,
		}, r, routerEP, agentCh)
		if err != nil {
			_ = r.Close()
			return nil, err
		}
		d.nodes[node] = &NodeRuntime{Router: r, Agent: a}
	}
	ok = true
	return d, nil
}

// Node returns one node's runtime.
func (d *Deployment) Node(n graph.NodeID) *NodeRuntime { return d.nodes[n] }

// Size reports the number of node runtimes.
func (d *Deployment) Size() int { return len(d.nodes) }

// WaitSynced blocks until the route finder has a full network view and
// every agent is registered, or the deadline passes.
func (d *Deployment) WaitSynced(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ready := d.RF.Synced()
		for _, n := range d.nodes {
			ready = ready && n.Agent.Registered() && n.Router.Synced()
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("controlplane: deployment not synced after %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Close tears the deployment down: agents (announcing leaves), routers,
// then the services.
func (d *Deployment) Close() {
	for _, n := range d.nodes {
		if n.Agent != nil {
			_ = n.Agent.Close()
		}
	}
	for _, n := range d.nodes {
		if n.Router != nil {
			_ = n.Router.Close()
		}
	}
	if d.Coord != nil {
		_ = d.Coord.Close()
	}
	if d.RF != nil {
		_ = d.RF.Close()
	}
}
