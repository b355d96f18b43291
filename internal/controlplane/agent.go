package controlplane

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"github.com/rtcl/drtp/internal/dedup"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/router"
	"github.com/rtcl/drtp/internal/telemetry"
	"github.com/rtcl/drtp/internal/transport"
)

// maxCmdResults is the capacity of the agent's command-dedup window (see
// dedup.Window): it holds exactly the last this many commands' results,
// in constant memory, comfortably outlasting retransmissions.
const maxCmdResults = 1024

// SplitEndpoint divides one transport endpoint between a node's router
// and its control-plane agent: control messages (registration acks,
// node deaths, drain notices, connection commands, request replies) go
// to the agent channel, everything else stays on the endpoint's Recv.
// The endpoint applies the split where it delivers each message
// (transport.Endpoint.Split), so nothing relays between it and either
// reader. The returned endpoint, inner itself, is what the router
// attaches to; closing it closes both channels. Call it before anything
// reads from inner.
func SplitEndpoint(inner transport.Endpoint) (transport.Endpoint, <-chan proto.Envelope) {
	return inner, inner.Split(agentBound)
}

// agentBound reports whether a message belongs to the node agent
// rather than the router.
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

// AgentConfig parameterizes an Agent.
type AgentConfig struct {
	// Node is the agent's node ID (the router's node).
	Node graph.NodeID
	// Graph is the static topology shared with the routers.
	Graph *graph.Graph
	// Coordinator is the setup coordinator's transport address; zero
	// selects CoordinatorID(Graph).
	Coordinator graph.NodeID
	// Tenant names the tenant for requests issued through this agent's
	// client API (default "default").
	Tenant string
	// HeartbeatInterval is the liveness beacon period (default 25ms);
	// deploy it matching the coordinator's.
	HeartbeatInterval time.Duration
	// RequestTimeout bounds a client-API request round trip, retries
	// included (default 10s).
	RequestTimeout time.Duration
	// RetryLimit is the attempt budget per client-API request (default
	// 3); the coordinator dedups, so retries are idempotent.
	RetryLimit int
	// Logger receives agent events; nil discards them.
	Logger *slog.Logger
}

func (c *AgentConfig) setDefaults(g *graph.Graph) {
	if c.Coordinator == 0 {
		c.Coordinator = CoordinatorID(g)
	}
	if c.Tenant == "" {
		c.Tenant = "default"
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 25 * time.Millisecond
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.RetryLimit == 0 {
		c.RetryLimit = 3
	}
	if c.Logger == nil {
		c.Logger = telemetry.DiscardLogger()
	}
}

// Agent is the control-plane side of a node runtime: it registers the
// node with the coordinator, heartbeats, executes connection commands
// through the co-located router (with sequence-number dedup, so the
// coordinator's retransmissions never double-execute), fails adjacent
// links when a neighbor is declared dead, and offers a client API for
// issuing tenant requests to the coordinator.
type Agent struct {
	cfg AgentConfig
	r   *router.Router
	ep  transport.Endpoint
	in  <-chan proto.Envelope
	log *slog.Logger

	mu sync.Mutex
	// registered is set once the coordinator acks; guarded by mu.
	registered bool
	// draining mirrors the coordinator's drain state; guarded by mu.
	draining bool
	// hbSeq numbers heartbeats; guarded by mu.
	hbSeq uint64
	// cmdResults dedups connection commands by sequence: nil marks an
	// execution in flight, non-nil a completed result to replay;
	// bounded; guarded by mu.
	cmdResults *dedup.Window[uint64, *proto.ConnCommandResult]
	// closed is set once Close begins; guarded by mu.
	closed bool

	stop chan struct{}
	done chan struct{}
	wg   sync.WaitGroup // command executions
	// work runs command executions.
	work *workers
}

// NewAgent creates and starts an agent for the router. ep is the shared
// underlying endpoint (used to send), in the agent-bound channel from
// SplitEndpoint.
func NewAgent(cfg AgentConfig, r *router.Router, ep transport.Endpoint, in <-chan proto.Envelope) (*Agent, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("controlplane: nil graph")
	}
	cfg.setDefaults(cfg.Graph)
	a := &Agent{
		cfg:        cfg,
		r:          r,
		ep:         ep,
		in:         in,
		log:        cfg.Logger.With("agent", int(cfg.Node)),
		cmdResults: dedup.NewWindow[uint64, *proto.ConnCommandResult](maxCmdResults, dedup.Mix),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	a.work = newWorkers(&a.wg, a.stop)
	go a.loop()
	return a, nil
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
	_ = a.ep.Send(a.cfg.Coordinator, proto.NodeDown{Node: a.cfg.Node, Reason: "leave"})
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
	regSeq := uint64(time.Now().UnixNano())
	tick := time.NewTicker(a.cfg.HeartbeatInterval)
	defer tick.Stop()
	_ = a.ep.Send(a.cfg.Coordinator, proto.Register{Node: a.cfg.Node, Seq: regSeq})
	for {
		select {
		case env, ok := <-a.in:
			if !ok {
				return
			}
			a.dispatch(env)
		case <-tick.C:
			a.mu.Lock()
			a.hbSeq++
			hb := proto.Heartbeat{Node: a.cfg.Node, Seq: a.hbSeq, Draining: a.draining}
			registered := a.registered
			a.mu.Unlock()
			if !registered {
				_ = a.ep.Send(a.cfg.Coordinator, proto.Register{Node: a.cfg.Node, Seq: regSeq})
			}
			_ = a.ep.Send(a.cfg.Coordinator, hb)
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
		if m.Node != a.cfg.Node {
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

// handleNodeDown reacts to a death announced by the coordinator: if the
// dead node is a neighbor, the shared link is declared failed, flooding
// a link-state death and triggering backup activation for connections
// crossing it — heartbeat-miss thereby propagates into the data plane.
func (a *Agent) handleNodeDown(m proto.NodeDown) {
	if m.Node == a.cfg.Node {
		return
	}
	for _, nbr := range a.cfg.Graph.Neighbors(a.cfg.Node) {
		if nbr == m.Node {
			a.log.Info("failing link to dead neighbor", "neighbor", int(m.Node), "reason", m.Reason)
			a.r.FailLink(m.Node)
			return
		}
	}
}

// handleCommand executes a coordinator command through the router,
// deduping by sequence number: an in-flight duplicate is ignored, a
// completed one replays the recorded result.
func (a *Agent) handleCommand(from graph.NodeID, m proto.ConnCommand) {
	a.mu.Lock()
	if res, seen := a.cmdResults.Get(m.Seq); seen {
		a.mu.Unlock()
		if res != nil {
			_ = a.ep.Send(from, *res)
		}
		return
	}
	a.cmdResults.Put(m.Seq, nil)
	a.mu.Unlock()

	a.work.run(func() {
		res := a.execute(m)
		a.mu.Lock()
		a.cmdResults.Put(m.Seq, &res)
		a.mu.Unlock()
		_ = a.ep.Send(from, res)
	})
}

// execute runs one connection command against the router.
func (a *Agent) execute(m proto.ConnCommand) proto.ConnCommandResult {
	res := proto.ConnCommandResult{Conn: m.Conn, Seq: m.Seq}
	switch m.Op {
	case proto.OpEstablish:
		info, err := a.r.EstablishRoutes(m.Conn, m.Dst, m.Primary, m.Backups)
		if err != nil {
			res.Reason = err.Error()
			return res
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
	msg := proto.EstablishRequest{Conn: id, Tenant: a.cfg.Tenant, Src: a.cfg.Node, Dst: dst}
	out, err := a.rpc(msg, proto.EstablishReply{Conn: id})
	if err != nil {
		return proto.EstablishReply{}, err
	}
	return out.(proto.EstablishReply), nil
}

// ReleaseConn asks the coordinator to release a connection previously
// established under the agent's tenant.
func (a *Agent) ReleaseConn(id lsdb.ConnID) (proto.ReleaseReply, error) {
	msg := proto.ReleaseRequest{Conn: id, Tenant: a.cfg.Tenant}
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
	attempts := max(a.cfg.RetryLimit, 1)
	per := a.cfg.RequestTimeout / time.Duration(attempts)
	if per <= 0 {
		per = time.Millisecond
	}
	return call(a.ep, a.cfg.Coordinator, msg, want, attempts, per, a.stop)
}
