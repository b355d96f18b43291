package controlplane

import (
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/telemetry"
	"github.com/rtcl/drtp/internal/transport"
)

// Exported coordinator errors.
var (
	// ErrClosed indicates the service was closed mid-operation.
	ErrClosed = errors.New("controlplane: closed")
	// ErrTimeout indicates an internal RPC exhausted its retry budget.
	ErrTimeout = errors.New("controlplane: rpc timeout")
)

// Quota bounds one tenant's admission. Zero fields are unlimited.
type Quota struct {
	// MaxConns caps the tenant's concurrent connections.
	MaxConns int
	// MaxBandwidth caps the tenant's total reserved primary bandwidth;
	// every connection consumes the deployment's UnitBW against it.
	MaxBandwidth int
}

// nodeRec is the registry's record of one node runtime.
type nodeRec struct {
	registered bool
	lastBeat   time.Time
	draining   bool
	down       bool
	downReason string
	// drainRunning marks a drain whose releases are not all answered yet;
	// it answers its requester itself.
	drainRunning bool
}

// connRec is the coordinator's record of one admitted connection. The
// routes are not in it: the source router owns them, and switches and
// re-protects the connection on its own.
type connRec struct {
	tenant string
	src    graph.NodeID
	dst    graph.NodeID
	// pending is set while an establish command for the connection runs
	// at its source: the admitted establishment's or a retried request's.
	pending bool
	// waiters lists the requesters to answer with the pending command's
	// result; a duplicate request joins them.
	waiters []graph.NodeID
	// releases lists the requesters of releases that arrived while
	// pending; the connection is released, and they are answered, once
	// the command settles.
	releases []graph.NodeID
}

// NodeState is a registry snapshot entry (see Coordinator.Nodes).
type NodeState struct {
	Node     graph.NodeID
	Draining bool
	Down     bool
	Reason   string
}

// Coordinator is the control plane's setup service: it admits tenant
// connection requests against per-tenant quotas, commands source-node
// agents to establish them, on routes their routers select, or to release
// them, tracks node liveness by heartbeat, and drains nodes by announcing
// them as it announces a death, so that each source moves its own
// connections off them.
type Coordinator struct {
	cfg    DeployConfig
	ep     transport.Endpoint
	log    *slog.Logger
	tracer *telemetry.Tracer

	// Per-stage setup latency; children resolved once at construction so
	// the observe path stays allocation-free. All are nil-safe no-ops
	// when cfg.Metrics is nil.
	latAdmission *telemetry.LatencyHist
	latEstablish *telemetry.LatencyHist
	latTotal     *telemetry.LatencyHist

	mu sync.Mutex
	// nodes is the registry, indexed by node ID: one record per topology
	// node, the zero record until the node registers; guarded by mu.
	nodes []nodeRec
	// conns records admitted connections, pending included; guarded by
	// mu.
	conns map[lsdb.ConnID]*connRec
	// usage counts connections per tenant, pending included; guarded by mu.
	usage map[string]int
	// rpcID numbers node commands, from the clock's nanosecond the
	// coordinator was built at, so a restarted coordinator numbers above
	// anything its earlier incarnation sent; guarded by mu.
	rpcID uint64
	// open lists the commands in flight in issue order; the oldest bounds
	// the low-water mark each command carries (proto.ConnCommand.Low);
	// guarded by mu.
	open []uint64
	// closed is set once Close begins; guarded by mu.
	closed bool
	// lastCheck is when the heartbeat check last ran, or when the
	// coordinator started; guarded by mu.
	lastCheck time.Time

	stop chan struct{}
	done chan struct{}
	wg   sync.WaitGroup // request workers and drains
	// work runs establishments and releases.
	work *workers
}

// NewCoordinator attaches at CoordinatorID(cfg.Graph) and starts a
// coordinator there.
func NewCoordinator(cfg DeployConfig, at Attacher) (*Coordinator, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	ep, err := at.Attach(CoordinatorID(cfg.Graph))
	if err != nil {
		return nil, fmt.Errorf("controlplane: attach coordinator: %w", err)
	}
	c := &Coordinator{
		cfg:    cfg,
		ep:     ep,
		log:    cfg.Logger.With("service", "coordinator"),
		tracer: cfg.Telemetry,
		nodes:  make([]nodeRec, cfg.Graph.NumNodes()),
		conns:  make(map[lsdb.ConnID]*connRec),
		usage:  make(map[string]int),
		rpcID:  uint64(ep.Clock().Now().UnixNano()),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),

		lastCheck: ep.Clock().Now(),
	}
	c.work = newWorkers(&c.wg, c.stop)
	stages := cfg.Metrics.LatencyVec("drtp_cp_stage_seconds",
		"Setup-pipeline stage latency: admission, establish, total.", "stage")
	c.latAdmission = stages.With("admission")
	c.latEstablish = stages.With("establish")
	c.latTotal = stages.With("total")
	go c.loop()
	return c, nil
}

// Close stops the service and its endpoint.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	err := c.ep.Close()
	<-c.done
	c.wg.Wait()
	return err
}

// Nodes snapshots the registry, ordered by node ID.
func (c *Coordinator) Nodes() []NodeState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeState, 0, len(c.nodes))
	for n, rec := range c.nodes {
		if !rec.registered {
			continue
		}
		out = append(out, NodeState{
			Node: graph.NodeID(n), Draining: rec.draining,
			Down: rec.down, Reason: rec.downReason,
		})
	}
	return out
}

// TenantConns reports a tenant's current admission usage (established
// plus in-flight connections).
func (c *Coordinator) TenantConns(tenant string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.usage[tenant]
}

// loop is the coordinator's single dispatch goroutine: inbound control
// messages plus the heartbeat liveness tick. Replies to its node commands
// go to the waiting worker where the endpoint delivers them; a reply
// reaching the loop was awaited by nobody and is dropped.
func (c *Coordinator) loop() {
	defer close(c.done)
	tick := c.ep.Clock().NewTicker(c.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case env, ok := <-c.ep.Recv():
			if !ok {
				return
			}
			c.dispatch(env)
		case <-tick.C():
			c.checkHeartbeats(c.ep.Clock().Now())
		case <-c.stop:
			return
		}
	}
}

func (c *Coordinator) dispatch(env proto.Envelope) {
	switch m := env.Msg.(type) {
	case proto.Register:
		c.handleRegister(env.From, m)
	case proto.Heartbeat:
		c.handleHeartbeat(m)
	case proto.NodeDown:
		c.handleLeave(m)
	case proto.EstablishRequest:
		c.handleEstablish(env.From, m)
	case proto.ReleaseRequest:
		c.handleRelease(env.From, m)
	case proto.DrainRequest:
		c.handleDrain(env.From, m)
	}
}

// handleRegister admits a node runtime into the registry. Registration
// is idempotent (lost acks are covered by the agent re-sending) and
// revives a node previously declared dead.
func (c *Coordinator) handleRegister(from graph.NodeID, m proto.Register) {
	if !c.inTopology(m.Node) {
		_ = c.ep.Send(from, proto.RegisterAck{Node: m.Node, Reason: "unknown-node"})
		return
	}
	c.mu.Lock()
	rec := &c.nodes[m.Node]
	joined := !rec.registered || rec.down
	rec.registered = true
	rec.down = false
	rec.downReason = ""
	rec.lastBeat = c.ep.Clock().Now()
	c.mu.Unlock()
	if joined {
		c.log.Info("node joined", "node", int(m.Node), "seq", m.Seq)
		c.tracer.NodeJoin(int(m.Node))
	}
	_ = c.ep.Send(from, proto.RegisterAck{Node: m.Node, OK: true})
}

// handleHeartbeat refreshes a node's liveness; a beat from a node
// declared dead revives it (partition healed, process back), and one from
// a node not registered registers it, so a restarted coordinator learns
// the nodes that registered with its earlier incarnation.
func (c *Coordinator) handleHeartbeat(m proto.Heartbeat) {
	if !c.inTopology(m.Node) {
		return
	}
	c.mu.Lock()
	rec := &c.nodes[m.Node]
	joined, revived := !rec.registered, rec.down
	rec.registered = true
	rec.lastBeat = c.ep.Clock().Now()
	rec.down = false
	rec.downReason = ""
	if m.Draining {
		// The agent's drain state survives a coordinator restart.
		rec.draining = true
	}
	c.mu.Unlock()
	switch {
	case joined:
		c.log.Info("node joined", "node", int(m.Node))
		c.tracer.NodeJoin(int(m.Node))
	case revived:
		c.log.Info("node revived", "node", int(m.Node))
		c.tracer.NodeJoin(int(m.Node))
	}
}

// handleLeave processes a graceful departure announced by the agent.
func (c *Coordinator) handleLeave(m proto.NodeDown) {
	if !c.inTopology(m.Node) {
		return
	}
	c.mu.Lock()
	rec := &c.nodes[m.Node]
	if !rec.registered || rec.down {
		c.mu.Unlock()
		return
	}
	rec.down = true
	rec.downReason = "leave"
	c.mu.Unlock()
	c.log.Info("node left", "node", int(m.Node))
	c.tracer.NodeLeave(int(m.Node), "leave")
	c.broadcastDown(m.Node, "leave")
}

// checkHeartbeats, run at now, declares nodes silent for HeartbeatMiss
// intervals dead and broadcasts their death so backups activate. Nodes
// that go silent together are declared, and announced, in ascending order.
// The announcement is the neighbours' recovery trigger, so every node
// still excluded — dead, or drained once its drain has announced it — is
// announced again on every tick, however long a neighbour misses the
// coordinator's messages; a repeat finds the link down already and does
// nothing (Router.FailLink, Router.HoldLink).
//
// A check that runs later than half the deadline past its tick reads the
// coordinator's own stall, not the nodes' silence: the heartbeats that
// arrived meanwhile may still wait behind it in the inbox. It moves every
// live node's last heartbeat forward by its lateness and declares nobody.
func (c *Coordinator) checkHeartbeats(now time.Time) {
	deadline := time.Duration(c.cfg.HeartbeatMiss) * c.cfg.HeartbeatInterval
	type cast struct {
		node   graph.NodeID
		reason string
	}
	var dead []graph.NodeID
	var rebroadcast []cast
	c.mu.Lock()
	late := now.Sub(c.lastCheck) - c.cfg.HeartbeatInterval
	stalled := late > deadline/2
	c.lastCheck = now
	for i := range c.nodes {
		n, rec := graph.NodeID(i), &c.nodes[i]
		if stalled && rec.registered && !rec.down {
			rec.lastBeat = rec.lastBeat.Add(late)
		}
		if !stalled && rec.registered && !rec.down && now.Sub(rec.lastBeat) > deadline {
			rec.down = true
			rec.downReason = "heartbeat-miss"
			dead = append(dead, n)
		} else if rec.down || rec.draining && !rec.drainRunning {
			reason := rec.downReason
			if !rec.down {
				reason = "drain"
			}
			rebroadcast = append(rebroadcast, cast{n, reason})
		}
	}
	c.mu.Unlock()
	if stalled {
		c.log.Warn("heartbeat check ran late; no node declared dead", "late", late)
	}
	for _, n := range dead {
		c.log.Warn("node declared dead", "node", int(n), "reason", "heartbeat-miss")
		c.tracer.HeartbeatMiss(int(n))
		c.tracer.NodeLeave(int(n), "heartbeat-miss")
		c.broadcastDown(n, "heartbeat-miss")
	}
	for _, b := range rebroadcast {
		c.broadcastDown(b.node, b.reason)
	}
}

// broadcastDown announces a death or a drain to the agents of the node's
// live topology neighbours, the only ones that act on it: they fail their
// shared links, or hold them down for a drain, which floods link-state
// deaths and reports the connections crossing them to their sources.
func (c *Coordinator) broadcastDown(node graph.NodeID, reason string) {
	msg := proto.NodeDown{Node: node, Reason: reason}
	c.mu.Lock()
	var live []graph.NodeID
	for _, n := range c.cfg.Graph.Neighbors(node) {
		if rec := c.nodes[n]; rec.registered && !rec.down {
			live = append(live, n)
		}
	}
	c.mu.Unlock()
	for _, n := range live {
		_ = c.ep.Send(n, msg)
	}
}

// excluded reports whether admission refuses the node as an endpoint.
func (rec nodeRec) excluded() bool { return rec.draining || rec.down }

// inTopology reports whether a node ID off the wire names a topology
// node, and so may index the registry.
func (c *Coordinator) inTopology(n graph.NodeID) bool {
	return n >= 0 && int(n) < c.cfg.Graph.NumNodes()
}

// handleEstablish admits a tenant request and, when admitted, commands
// the establishment on a worker.
// A duplicate request for a pending connection is answered by the
// command in flight; one for an established connection asks its source
// again and is answered with the routes the connection holds then.
// Client retries are thereby idempotent.
func (c *Coordinator) handleEstablish(from graph.NodeID, m proto.EstablishRequest) {
	start := c.ep.Clock().Now()
	c.mu.Lock()
	rec, dup := c.conns[m.Conn]
	q, used := c.cfg.Quotas[m.Tenant], c.usage[m.Tenant] // a tenant not listed is unlimited
	var reason string
	switch {
	case dup && rec.tenant != m.Tenant:
		reason = "conn-exists"
	case dup && rec.pending:
		if !slices.Contains(rec.waiters, from) {
			rec.waiters = append(rec.waiters, from)
		}
		c.mu.Unlock()
		return
	case dup && c.nodes[rec.src].down:
		c.mu.Unlock()
		_ = c.ep.Send(from, proto.EstablishReply{Conn: m.Conn, Reason: "src-down"})
		return
	case dup:
		rec.pending = true
		rec.waiters = []graph.NodeID{from}
		c.mu.Unlock()
		c.work.run(func() { c.ensure(m.Conn, rec, false) })
		return
	case !c.inTopology(m.Src):
		reason = "unknown-src"
	case !c.nodes[m.Src].registered:
		reason = "src-unregistered"
	case c.nodes[m.Src].down:
		reason = "src-down"
	case c.nodes[m.Src].draining:
		reason = "src-draining"
	case !c.inTopology(m.Dst) || m.Dst == m.Src:
		reason = "bad-endpoints"
	case c.nodes[m.Dst].excluded():
		reason = "endpoint-excluded"
	case q.MaxConns > 0 && used+1 > q.MaxConns:
		reason = "quota-conns"
	case q.MaxBandwidth > 0 && (used+1)*c.cfg.UnitBW > q.MaxBandwidth:
		reason = "quota-bandwidth"
	}
	if reason != "" {
		c.mu.Unlock()
		elapsed := c.ep.Clock().Now().Sub(start)
		c.latAdmission.Observe(elapsed)
		c.latTotal.Observe(elapsed)
		c.tracer.AdmissionReject(m.Tenant, int64(m.Conn), reason)
		c.log.Info("establish rejected", "conn", int64(m.Conn), "tenant", m.Tenant, "reason", reason)
		_ = c.ep.Send(from, proto.EstablishReply{Conn: m.Conn, Reason: reason})
		return
	}
	c.usage[m.Tenant]++
	rec = &connRec{tenant: m.Tenant, src: m.Src, dst: m.Dst, pending: true, waiters: []graph.NodeID{from}}
	c.conns[m.Conn] = rec
	c.mu.Unlock()
	c.latAdmission.Observe(c.ep.Clock().Now().Sub(start))

	c.work.run(func() {
		defer func() { c.latTotal.Observe(c.ep.Clock().Now().Sub(start)) }()
		cmdStart := c.ep.Clock().Now()
		res, _ := c.ensure(m.Conn, rec, true)
		c.latEstablish.Observe(c.ep.Clock().Now().Sub(cmdStart))
		if res.OK {
			c.log.Info("connection admitted", "conn", int64(m.Conn), "tenant", m.Tenant,
				"src", int(m.Src), "dst", int(m.Dst), "backups", len(res.Backups))
		} else {
			c.log.Info("establish failed", "conn", int64(m.Conn), "tenant", m.Tenant, "reason", res.Reason)
		}
	})
}

// establishReply answers a request with an establish command's result.
func establishReply(id lsdb.ConnID, res proto.ConnCommandResult) proto.EstablishReply {
	return proto.EstablishReply{Conn: id, OK: res.OK, Reason: res.Reason, Primary: res.Primary, Backups: res.Backups}
}

// ensure commands the source of a pending record to hold the connection,
// then settles the record and answers its waiters. The connection is
// gone, and its record dropped, when the source answers no or the
// admitting command gets no answer; a command for an admitted connection
// that gets none keeps the record, as the source may hold the connection
// still. Releases that arrived meanwhile are carried out and answered, and
// so is the release of a connection one of whose endpoints began to drain
// meanwhile, whose waiters are refused "endpoint-excluded". A command that
// cannot complete reports its error as the result's Reason.
func (c *Coordinator) ensure(id lsdb.ConnID, rec *connRec, admitting bool) (res proto.ConnCommandResult, gone bool) {
	res, err := c.command(rec.src, proto.ConnCommand{Op: proto.OpEstablish, Conn: id, Dst: rec.dst})
	if err != nil {
		res.Reason = "establish-command: " + err.Error()
	}
	gone = !res.OK && (err == nil || admitting)
	c.mu.Lock()
	rec.pending = false
	waiters, releases := rec.waiters, rec.releases
	rec.waiters, rec.releases = nil, nil
	drained := !gone && (c.nodes[rec.src].draining || c.nodes[rec.dst].draining)
	if drained {
		res = proto.ConnCommandResult{Reason: "endpoint-excluded"}
	}
	if gone || drained || len(releases) > 0 {
		delete(c.conns, id)
		c.usage[rec.tenant]--
	}
	c.mu.Unlock()
	for _, to := range waiters {
		_ = c.ep.Send(to, establishReply(id, res))
	}
	switch {
	case gone:
		for _, to := range releases {
			_ = c.ep.Send(to, proto.ReleaseReply{Conn: id, OK: true, Reason: "not-found"})
		}
	case drained || len(releases) > 0:
		c.release(rec.src, id, rec.tenant, releases...)
	}
	return res, gone
}

// handleRelease releases a tenant's connection via its source agent.
// Releasing an unknown connection succeeds (idempotent for retries); a
// release of a pending connection is carried out, and answered, when its
// command settles.
func (c *Coordinator) handleRelease(from graph.NodeID, m proto.ReleaseRequest) {
	c.mu.Lock()
	rec, ok := c.conns[m.Conn]
	switch {
	case !ok:
		c.mu.Unlock()
		_ = c.ep.Send(from, proto.ReleaseReply{Conn: m.Conn, OK: true, Reason: "not-found"})
		return
	case rec.tenant != m.Tenant:
		c.mu.Unlock()
		_ = c.ep.Send(from, proto.ReleaseReply{Conn: m.Conn, Reason: "wrong-tenant"})
		return
	case rec.pending:
		if !slices.Contains(rec.releases, from) {
			rec.releases = append(rec.releases, from)
		}
		c.mu.Unlock()
		return
	}
	delete(c.conns, m.Conn)
	c.usage[rec.tenant]--
	c.mu.Unlock()

	c.work.run(func() { c.release(rec.src, m.Conn, rec.tenant, from) })
}

// release commands a connection's source to release it and answers each
// requester with the outcome.
func (c *Coordinator) release(src graph.NodeID, id lsdb.ConnID, tenant string, requesters ...graph.NodeID) {
	res, err := c.command(src, proto.ConnCommand{Op: proto.OpRelease, Conn: id})
	reply := proto.ReleaseReply{Conn: id, OK: true}
	switch {
	case err != nil:
		reply = proto.ReleaseReply{Conn: id, Reason: "release-command: " + err.Error()}
	case !res.OK:
		reply = proto.ReleaseReply{Conn: id, Reason: res.Reason}
	}
	c.log.Info("connection released", "conn", int64(id), "tenant", tenant, "ok", reply.OK)
	for _, to := range requesters {
		_ = c.ep.Send(to, reply)
	}
}

// handleDrain starts a graceful drain. The node is marked unschedulable:
// admission refuses it as an endpoint, and its readiness probe flips. The
// connections originated or terminated there are released, in parallel,
// except one whose command is in flight, released when that settles
// (ensure), and one whose source is held down, left as it is since its
// source cannot answer. Once the releases are answered the node is
// announced as a death is (broadcastDown), and re-announced on every
// later tick while it stays excluded (checkHeartbeats). Its neighbours
// hold their links to it down, and the source of every connection
// crossing those links moves it off on its own: a primary switches to its
// backup and is re-protected, a backup is replaced. The reply follows the announcement and counts the
// connections released.
func (c *Coordinator) handleDrain(from graph.NodeID, m proto.DrainRequest) {
	if !c.inTopology(m.Node) {
		_ = c.ep.Send(from, proto.DrainReply{Node: m.Node, Reason: "unknown-node"})
		return
	}
	releases := make(map[lsdb.ConnID]*connRec)
	c.mu.Lock()
	rec := &c.nodes[m.Node]
	reply := proto.DrainReply{Node: m.Node}
	started := false
	switch {
	case !rec.registered:
		reply.Reason = "unregistered"
	case rec.down:
		reply.Reason = "node-down"
	case rec.drainRunning:
		// The running drain replies to its requester; a retry that raced
		// it is answered "already-drained" on its next attempt.
	case rec.draining:
		reply.OK, reply.Reason = true, "already-drained"
	default:
		rec.draining, rec.drainRunning, started = true, true, true
		for id, cr := range c.conns {
			if (cr.src == m.Node || cr.dst == m.Node) && !cr.pending && !c.nodes[cr.src].down {
				delete(c.conns, id)
				c.usage[cr.tenant]--
				releases[id] = cr
			}
		}
	}
	c.mu.Unlock()
	if reply.Reason != "" {
		_ = c.ep.Send(from, reply)
	}
	if !started {
		return
	}

	c.tracer.DrainStart(int(m.Node))
	c.log.Info("drain started", "node", int(m.Node))
	// Best-effort notification: the node's own readiness probe flips
	// unready.
	_ = c.ep.Send(m.Node, proto.Unschedulable{Node: m.Node, On: true})
	var released sync.WaitGroup
	released.Add(len(releases))
	for id, cr := range releases {
		c.work.run(func() {
			defer released.Done()
			c.release(cr.src, id, cr.tenant)
		})
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		released.Wait()
		c.broadcastDown(m.Node, "drain")
		c.tracer.DrainDone(int(m.Node), len(releases))
		c.log.Info("drain announced", "node", int(m.Node), "dropped", len(releases))
		_ = c.ep.Send(from, proto.DrainReply{Node: m.Node, OK: true, Dropped: len(releases)})
		c.mu.Lock()
		c.nodes[m.Node].drainRunning = false
		c.mu.Unlock()
	}()
}

// nextID issues the next RPC identifier, open until closeID, and the
// low-water mark to send with it: just below the oldest command in
// flight. It returns ErrClosed once Close began.
func (c *Coordinator) nextID() (seq, low uint64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, 0, ErrClosed
	}
	c.rpcID++
	c.open = append(c.open, c.rpcID)
	return c.rpcID, c.open[0] - 1, nil
}

// closeID lets the low-water mark pass seq, whose round trip is over.
func (c *Coordinator) closeID(seq uint64) {
	c.mu.Lock()
	i := slices.Index(c.open, seq)
	c.open = slices.Delete(c.open, i, i+1)
	c.mu.Unlock()
}

// command runs one node-command round trip. Retransmissions reuse the
// sequence number, so the agent's dedup absorbs duplicates and replays
// the recorded result.
func (c *Coordinator) command(node graph.NodeID, cmd proto.ConnCommand) (proto.ConnCommandResult, error) {
	seq, low, err := c.nextID()
	if err != nil {
		return proto.ConnCommandResult{}, err
	}
	defer c.closeID(seq)
	cmd.Seq, cmd.Low = seq, low
	out, err := call(c.ep, node, cmd, proto.ConnCommandResult{Seq: seq}, c.cfg.RetryLimit, c.cfg.RPCTimeout, c.stop)
	if err != nil {
		return proto.ConnCommandResult{}, err
	}
	return out.(proto.ConnCommandResult), nil
}
