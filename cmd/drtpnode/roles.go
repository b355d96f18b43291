package main

import (
	"fmt"

	"github.com/rtcl/drtp/internal/controlplane"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/router"
	"github.com/rtcl/drtp/internal/transport"
)

// defaultHeartbeatMiss is how many silent heartbeat intervals declare
// a live deployment's node dead; DeployConfig's own default is 2.
const defaultHeartbeatMiss = 3

// consoleEnv is what a started role exposes to the console and the
// observability endpoint. Router commands need r, coordinator-backed
// commands need a; either may be nil depending on the role.
type consoleEnv struct {
	g       *graph.Graph
	r       *router.Router
	a       *controlplane.Agent
	ready   func() (bool, string)
	banner  string
	closers []func()
}

// close tears the role down in reverse construction order.
func (e *consoleEnv) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
}

// start brings up the process's role over at and returns its console
// surface; mesh holds the listening address the banner names. "all" is
// the standalone router: run resolves it to "node" when -services
// joins the process to the control plane.
func start(role string, cfg controlplane.DeployConfig, node graph.NodeID, mesh *transport.TCPMesh, at transport.Attacher) (*consoleEnv, error) {
	var (
		env  *consoleEnv
		err  error
		id   = node
		what = fmt.Sprintf("node %d", node)
	)
	switch role {
	case "setup":
		id, what = controlplane.CoordinatorID(cfg.Graph), "setup coordinator"
		env, err = startCoordinator(cfg, at)
	case "node":
		env, err = startNode(cfg, node, at)
	case "all":
		env, err = startRouter(cfg, node, at)
	default:
		return nil, fmt.Errorf("unknown role %q", role)
	}
	if err != nil {
		return nil, err
	}
	addr, _ := mesh.Addr(id)
	env.g = cfg.Graph
	env.banner = fmt.Sprintf("drtpnode: %s listening on %s (%d nodes, %d links)\n",
		what, addr, cfg.Graph.NumNodes(), cfg.Graph.NumLinks())
	return env, nil
}

// syncedProbe is the readiness of a process that needs only a synced
// link-state view.
func syncedProbe(synced func() bool) func() (bool, string) {
	return func() (bool, string) {
		if !synced() {
			return false, "awaiting link-state sync"
		}
		return true, ""
	}
}

// startCoordinator runs the setup coordinator: registry, heartbeat
// liveness, admission quotas and hop-by-hop establishment. It is ready
// as soon as it serves; clients gate on their own registration.
func startCoordinator(cfg controlplane.DeployConfig, at transport.Attacher) (*consoleEnv, error) {
	coord, err := controlplane.NewCoordinator(cfg, at)
	if err != nil {
		return nil, err
	}
	return &consoleEnv{
		ready:   func() (bool, string) { return true, "" },
		closers: []func(){func() { _ = coord.Close() }},
	}, nil
}

// startNode runs a router and its control-plane agent on one endpoint.
// Ready follows the agent: registered, synced, not draining.
func startNode(cfg controlplane.DeployConfig, node graph.NodeID, at transport.Attacher) (*consoleEnv, error) {
	n, err := controlplane.NewNodeRuntime(cfg, node, at)
	if err != nil {
		return nil, err
	}
	return &consoleEnv{
		r:       n.Router,
		a:       n.Agent,
		ready:   n.Ready,
		closers: []func(){func() { _ = n.Router.Close() }, func() { _ = n.Agent.Close() }},
	}, nil
}

// startRouter runs a standalone router, outside any control plane.
// Ready once its link-state view is synced.
func startRouter(cfg controlplane.DeployConfig, node graph.NodeID, at transport.Attacher) (*consoleEnv, error) {
	ep, err := at.Attach(node)
	if err != nil {
		return nil, err
	}
	r, err := router.New(cfg.RouterConfig(node), ep)
	if err != nil {
		_ = ep.Close()
		return nil, err
	}
	return &consoleEnv{
		r:       r,
		ready:   syncedProbe(r.Synced),
		closers: []func(){func() { _ = r.Close() }},
	}, nil
}
