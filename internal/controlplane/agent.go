package controlplane

import (
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"github.com/rtcl/drtp/internal/dedup"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/router"
	"github.com/rtcl/drtp/internal/transport"
)

// agentBound reports whether a message belongs to the node agent
// rather than the router: registration acks, node deaths, drain
// notices, connection commands and the replies to client requests.
func agentBound(m proto.Message) bool {
	switch m.(type) {
	case proto.RegisterAck, proto.NodeDown, proto.Unschedulable,
		proto.ConnCommand, proto.EstablishReply, proto.ReleaseReply,
		proto.DrainReply:
		return true
	default:
		return false
	}
}

// Agent is the control-plane side of a node runtime: it registers the
// node with the coordinator, heartbeats, executes connection commands
// through the co-located router, which routes each establishment itself
// (commands are deduplicated by sequence number, each result kept until
// the coordinator's low-water mark passes it, so the coordinator's
// retransmissions never double-execute), fails adjacent links when a
// neighbor is declared dead and holds them down when one drains, and
// offers a client API for issuing tenant requests to the coordinator.
type Agent struct {
	cfg    DeployConfig
	node   graph.NodeID
	coord  graph.NodeID
	tenant string
	r      *router.Router
	ep     transport.Endpoint
	in     <-chan proto.Envelope
	log    *slog.Logger

	mu sync.Mutex
	// registered is set once the coordinator acks; guarded by mu.
	registered bool
	// draining mirrors the coordinator's drain state; guarded by mu.
	draining bool
	// hbSeq numbers heartbeats; guarded by mu.
	hbSeq uint64
	// cmdResults dedups connection commands by sequence above the
	// low-water mark their coordinator sent (proto.ConnCommand.Low): nil
	// marks an execution in flight, non-nil a completed result to replay;
	// guarded by mu.
	cmdResults *dedup.Window[graph.NodeID, cmdKey, *proto.ConnCommandResult]
	// closed is set once Close begins; guarded by mu.
	closed bool

	stop chan struct{}
	done chan struct{}
	wg   sync.WaitGroup // command executions
	// work runs command executions.
	work *workers
}

// newAgent starts node's agent beside its router r: ep is the endpoint
// they share (the agent only sends on it), in the agent's share of it.
// cfg has its defaults applied.
func newAgent(cfg DeployConfig, node graph.NodeID, r *router.Router, ep transport.Endpoint, in <-chan proto.Envelope) *Agent {
	tenant := cfg.Tenants[node]
	if tenant == "" {
		tenant = "default"
	}
	a := &Agent{
		cfg:        cfg,
		node:       node,
		coord:      CoordinatorID(cfg.Graph),
		tenant:     tenant,
		r:          r,
		ep:         ep,
		in:         in,
		log:        cfg.Logger.With("agent", int(node)),
		cmdResults: dedup.NewWindow[graph.NodeID, cmdKey, *proto.ConnCommandResult](),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	a.work = newWorkers(&a.wg, a.stop)
	go a.loop()
	return a
}

// Close stops the agent, announcing a graceful leave to the
// coordinator. It does not close the shared endpoint — the router owns
// that.
func (a *Agent) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	a.mu.Unlock()
	_ = a.ep.Send(a.coord, proto.NodeDown{Node: a.node, Reason: "leave"})
	close(a.stop)
	<-a.done
	a.wg.Wait()
	return nil
}

// Ready implements the node runtime's readiness condition: unready
// before the router's first link-state sync, before the coordinator
// has acked registration (it rejects requests from an unregistered
// source) and while draining.
func (a *Agent) Ready() (bool, string) {
	if !a.r.Synced() {
		return false, "awaiting link-state sync"
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.registered {
		return false, "awaiting registration"
	}
	if a.draining {
		return false, "draining"
	}
	return true, ""
}

// Registered reports whether the coordinator has acked registration.
func (a *Agent) Registered() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.registered
}

// Draining reports the node's drain state.
func (a *Agent) Draining() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.draining
}

// loop is the agent's single dispatch goroutine: inbound control
// messages plus the heartbeat/registration tick. Coordinator replies go
// to the waiting client call where the endpoint delivers them; one
// reaching the loop was awaited by nobody and is dropped.
func (a *Agent) loop() {
	defer close(a.done)
	// Registration sequence: one fresh value per process incarnation so
	// the coordinator can tell restarts from retransmissions.
	regSeq := uint64(a.ep.Clock().Now().UnixNano())
	tick := a.ep.Clock().NewTicker(a.cfg.HeartbeatInterval)
	defer tick.Stop()
	_ = a.ep.Send(a.coord, proto.Register{Node: a.node, Seq: regSeq})
	for {
		select {
		case env, ok := <-a.in:
			if !ok {
				return
			}
			a.dispatch(env)
		case <-tick.C():
			a.mu.Lock()
			a.hbSeq++
			hb := proto.Heartbeat{Node: a.node, Seq: a.hbSeq, Draining: a.draining}
			registered := a.registered
			a.mu.Unlock()
			if !registered {
				_ = a.ep.Send(a.coord, proto.Register{Node: a.node, Seq: regSeq})
			}
			_ = a.ep.Send(a.coord, hb)
		case <-a.stop:
			return
		}
	}
}

func (a *Agent) dispatch(env proto.Envelope) {
	switch m := env.Msg.(type) {
	case proto.RegisterAck:
		if !m.OK {
			a.log.Warn("registration rejected", "reason", m.Reason)
			return
		}
		a.mu.Lock()
		was := a.registered
		a.registered = true
		a.mu.Unlock()
		if !was {
			a.log.Info("registered with coordinator")
		}
	case proto.NodeDown:
		a.handleNodeDown(m)
	case proto.Unschedulable:
		if m.Node != a.node {
			return
		}
		a.mu.Lock()
		a.draining = m.On
		a.mu.Unlock()
		a.log.Info("drain state changed", "draining", m.On)
	case proto.ConnCommand:
		a.handleCommand(env.From, m)
	}
}

// handleNodeDown reacts to a death or a drain announced by the
// coordinator: if the node is a neighbor, the shared link is declared
// failed, or for a drain held down (Router.HoldLink), flooding a
// link-state death and sending failure reports to the sources of the
// connections crossing it, which switch or move their backups —
// heartbeat-miss and drains thereby propagate into the data plane. The
// coordinator re-announces an excluded node on every heartbeat tick; a
// repeat finds the link down already, and the router does nothing.
func (a *Agent) handleNodeDown(m proto.NodeDown) {
	if m.Node == a.node || !slices.Contains(a.cfg.Graph.Neighbors(a.node), m.Node) {
		return
	}
	a.log.Debug("failing link to neighbor", "neighbor", int(m.Node), "reason", m.Reason)
	if m.Reason == "drain" {
		a.r.HoldLink(m.Node)
	} else {
		a.r.FailLink(m.Node)
	}
}

// handleCommand executes a coordinator command through the router,
// deduping by sequence number: an in-flight duplicate is ignored, a
// completed one replays the recorded result, and one at or below the
// coordinator's low-water mark, which it no longer awaits, is ignored.
func (a *Agent) handleCommand(from graph.NodeID, m proto.ConnCommand) {
	a.mu.Lock()
	coord := a.cmdResults.Raise(from, m.Low)
	if res, seen := a.cmdResults.Get(cmdKey(m.Seq)); seen || m.Seq <= coord.Low() {
		a.mu.Unlock()
		if res != nil {
			_ = a.ep.Send(from, *res)
		}
		return
	}
	a.cmdResults.Put(coord, cmdKey(m.Seq), nil)
	a.mu.Unlock()

	a.work.run(func() {
		res := a.execute(m)
		a.mu.Lock()
		a.cmdResults.Put(coord, cmdKey(m.Seq), &res)
		a.mu.Unlock()
		_ = a.ep.Send(from, res)
	})
}

// cmdKey is a connection command's sequence number, its dedup key.
type cmdKey uint64

// Seq returns the command's sequence number.
func (k cmdKey) Seq() uint64 { return uint64(k) }

// execute runs one connection command against the router.
func (a *Agent) execute(m proto.ConnCommand) proto.ConnCommandResult {
	res := proto.ConnCommandResult{Conn: m.Conn, Seq: m.Seq}
	switch m.Op {
	case proto.OpEstablish:
		// Idempotent: a connection the router holds already is answered
		// with the routes it holds now.
		info, held := a.r.Conn(m.Conn)
		if !held {
			var err error
			if info, err = a.r.Establish(m.Conn, m.Dst); err != nil {
				res.Reason = err.Error()
				return res
			}
		}
		res.OK = true
		res.Primary = info.Primary
		res.Backups = info.Backups
	case proto.OpRelease:
		if _, ok := a.r.Conn(m.Conn); !ok {
			// Already gone: releasing is idempotent for retried drains.
			res.OK = true
			return res
		}
		if err := a.r.Release(m.Conn); err != nil {
			res.Reason = err.Error()
			return res
		}
		res.OK = true
	default:
		res.Reason = fmt.Sprintf("unknown op %d", int(m.Op))
	}
	return res
}

// Request asks the coordinator to establish a DR-connection from this
// node under the agent's tenant.
func (a *Agent) Request(id lsdb.ConnID, dst graph.NodeID) (proto.EstablishReply, error) {
	msg := proto.EstablishRequest{Conn: id, Tenant: a.tenant, Src: a.node, Dst: dst}
	out, err := a.rpc(msg, proto.EstablishReply{Conn: id})
	if err != nil {
		return proto.EstablishReply{}, err
	}
	return out.(proto.EstablishReply), nil
}

// ReleaseConn asks the coordinator to release a connection previously
// established under the agent's tenant.
func (a *Agent) ReleaseConn(id lsdb.ConnID) (proto.ReleaseReply, error) {
	msg := proto.ReleaseRequest{Conn: id, Tenant: a.tenant}
	out, err := a.rpc(msg, proto.ReleaseReply{Conn: id})
	if err != nil {
		return proto.ReleaseReply{}, err
	}
	return out.(proto.ReleaseReply), nil
}

// DrainNode asks the coordinator to drain a node (any node, not just
// this agent's).
func (a *Agent) DrainNode(node graph.NodeID) (proto.DrainReply, error) {
	msg := proto.DrainRequest{Node: node}
	out, err := a.rpc(msg, proto.DrainReply{Node: node})
	if err != nil {
		return proto.DrainReply{}, err
	}
	return out.(proto.DrainReply), nil
}

// rpc runs one client-API round trip to the coordinator, awaiting the
// reply keyed like want: the request is retransmitted across the attempt
// budget (the coordinator dedups) and the first matching reply wins. A
// second request for a key in flight is refused.
func (a *Agent) rpc(msg, want proto.Message) (proto.Message, error) {
	a.mu.Lock()
	closed := a.closed
	a.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	// The attempts share a budget of RetryLimit+2 RPC timeouts, so a
	// request outlasts a coordinator round trip that needs every retry.
	attempts := max(a.cfg.RetryLimit, 1)
	per := a.cfg.RPCTimeout * time.Duration(attempts+2) / time.Duration(attempts)
	return call(a.ep, a.coord, msg, want, attempts, per, a.stop)
}
