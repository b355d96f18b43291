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
	// downcasts counts NodeDown broadcasts still owed for this death:
	// the announcement is the recovery trigger, so over a lossy
	// transport it is re-broadcast on later ticks until the budget is
	// spent (agents dedup via their routers' down-neighbor state).
	downcasts int
}

// pendingConn is an admitted establishment still in flight.
type pendingConn struct {
	tenant string
	// releases lists the requesters of releases that arrived while the
	// establishment was in flight; it is released, and they are answered,
	// once it settles.
	releases []graph.NodeID
}

// connRec is the coordinator's record of one admitted connection.
type connRec struct {
	tenant  string
	src     graph.NodeID
	dst     graph.NodeID
	primary []graph.NodeID
	backups [][]graph.NodeID
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
// agents to establish them, on routes their routers select around the
// draining and dead nodes, or to release them, tracks node liveness by
// heartbeat, and drains nodes by migrating their connections onto routes
// that avoid them.
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
	// conns records admitted, established connections; guarded by mu.
	conns map[lsdb.ConnID]*connRec
	// pendingConns records establishments in flight, so duplicates from
	// client retries attach to the original attempt and a release waits
	// for it to settle; guarded by mu.
	pendingConns map[lsdb.ConnID]*pendingConn
	// usage counts connections per tenant, pending included; guarded by mu.
	usage map[string]int
	// drains marks nodes with a drain worker running; guarded by mu.
	drains map[graph.NodeID]bool
	// rpcID numbers node commands; guarded by mu.
	rpcID uint64
	// closed is set once Close begins; guarded by mu.
	closed bool

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
		cfg:          cfg,
		ep:           ep,
		log:          cfg.Logger.With("service", "coordinator"),
		tracer:       cfg.Telemetry,
		nodes:        make([]nodeRec, cfg.Graph.NumNodes()),
		conns:        make(map[lsdb.ConnID]*connRec),
		pendingConns: make(map[lsdb.ConnID]*pendingConn),
		usage:        make(map[string]int),
		drains:       make(map[graph.NodeID]bool),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
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

// Conn reports the recorded routes of an admitted connection.
func (c *Coordinator) Conn(id lsdb.ConnID) (primary []graph.NodeID, backups [][]graph.NodeID, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, found := c.conns[id]
	if !found {
		return nil, nil, false
	}
	return rec.primary, rec.backups, true
}

// loop is the coordinator's single dispatch goroutine: inbound control
// messages plus the heartbeat liveness tick. Replies to its node commands
// go to the waiting worker where the endpoint delivers them; a reply
// reaching the loop was awaited by nobody and is dropped.
func (c *Coordinator) loop() {
	defer close(c.done)
	tick := time.NewTicker(c.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case env, ok := <-c.ep.Recv():
			if !ok {
				return
			}
			c.dispatch(env)
		case <-tick.C:
			c.checkHeartbeats()
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
	rec.lastBeat = time.Now()
	c.mu.Unlock()
	if joined {
		c.log.Info("node joined", "node", int(m.Node), "seq", m.Seq)
		c.tracer.NodeJoin(int(m.Node))
	}
	_ = c.ep.Send(from, proto.RegisterAck{Node: m.Node, OK: true})
}

// handleHeartbeat refreshes a node's liveness; a beat from a node
// declared dead revives it (partition healed, process back).
func (c *Coordinator) handleHeartbeat(m proto.Heartbeat) {
	if !c.inTopology(m.Node) {
		return
	}
	c.mu.Lock()
	rec := &c.nodes[m.Node]
	if !rec.registered {
		c.mu.Unlock()
		return
	}
	rec.lastBeat = time.Now()
	revived := rec.down
	rec.down = false
	rec.downReason = ""
	if m.Draining {
		// The agent's drain state survives a coordinator restart.
		rec.draining = true
	}
	c.mu.Unlock()
	if revived {
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
	rec.downcasts = c.cfg.RetryLimit - 1
	c.mu.Unlock()
	c.log.Info("node left", "node", int(m.Node))
	c.tracer.NodeLeave(int(m.Node), "leave")
	c.broadcastDown(m.Node, "leave")
}

// checkHeartbeats declares nodes silent for HeartbeatMiss intervals
// dead and broadcasts their death so backups activate. Nodes that go
// silent together are declared, and announced, in ascending order.
func (c *Coordinator) checkHeartbeats() {
	deadline := time.Duration(c.cfg.HeartbeatMiss) * c.cfg.HeartbeatInterval
	now := time.Now()
	type cast struct {
		node   graph.NodeID
		reason string
	}
	var dead []graph.NodeID
	var rebroadcast []cast
	c.mu.Lock()
	for i := range c.nodes {
		n, rec := graph.NodeID(i), &c.nodes[i]
		if rec.registered && !rec.down && now.Sub(rec.lastBeat) > deadline {
			rec.down = true
			rec.downReason = "heartbeat-miss"
			rec.downcasts = c.cfg.RetryLimit - 1
			dead = append(dead, n)
		} else if rec.down && rec.downcasts > 0 {
			rec.downcasts--
			rebroadcast = append(rebroadcast, cast{n, rec.downReason})
		}
	}
	c.mu.Unlock()
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

// broadcastDown announces a death to every live node agent, in node
// order; agents adjacent to the dead node fail their shared links, which
// floods link-state deaths and activates affected backups.
func (c *Coordinator) broadcastDown(node graph.NodeID, reason string) {
	msg := proto.NodeDown{Node: node, Reason: reason}
	c.mu.Lock()
	var live []graph.NodeID
	for n, rec := range c.nodes {
		if graph.NodeID(n) != node && rec.registered && !rec.down {
			live = append(live, graph.NodeID(n))
		}
	}
	c.mu.Unlock()
	for _, n := range live {
		_ = c.ep.Send(n, msg)
	}
}

// excludedNodesLocked lists, ascending, the nodes new routes must avoid:
// draining or dead. Callers must hold c.mu.
func (c *Coordinator) excludedNodesLocked() []graph.NodeID {
	var out []graph.NodeID
	for n, rec := range c.nodes {
		if rec.excluded() {
			out = append(out, graph.NodeID(n))
		}
	}
	return out
}

// excluded reports whether new routes must avoid the node.
func (rec nodeRec) excluded() bool { return rec.draining || rec.down }

// inTopology reports whether a node ID off the wire names a topology
// node, and so may index the registry.
func (c *Coordinator) inTopology(n graph.NodeID) bool {
	return n >= 0 && int(n) < c.cfg.Graph.NumNodes()
}

// handleEstablish admits a tenant request and, when admitted, commands
// the establishment on a worker.
// Duplicate requests replay the recorded outcome (established) or
// attach to the in-flight attempt (pending), so client retries are
// idempotent.
func (c *Coordinator) handleEstablish(from graph.NodeID, m proto.EstablishRequest) {
	start := time.Now()
	reject := func(reason string) {
		c.latAdmission.ObserveSince(start)
		c.latTotal.ObserveSince(start)
		c.tracer.AdmissionReject(m.Tenant, int64(m.Conn), reason)
		c.log.Info("establish rejected", "conn", int64(m.Conn), "tenant", m.Tenant, "reason", reason)
		_ = c.ep.Send(from, proto.EstablishReply{Conn: m.Conn, Reason: reason})
	}
	c.mu.Lock()
	if rec, dup := c.conns[m.Conn]; dup {
		tenant := rec.tenant
		reply := proto.EstablishReply{Conn: m.Conn, OK: true, Primary: rec.primary, Backups: rec.backups}
		c.mu.Unlock()
		if tenant != m.Tenant {
			reject("conn-exists")
			return
		}
		_ = c.ep.Send(from, reply)
		return
	}
	if c.pendingConns[m.Conn] != nil {
		// The original attempt's worker will reply to the requester.
		c.mu.Unlock()
		return
	}
	if !c.inTopology(m.Src) {
		c.mu.Unlock()
		reject("unknown-src")
		return
	}
	switch srcRec := c.nodes[m.Src]; {
	case !srcRec.registered:
		c.mu.Unlock()
		reject("src-unregistered")
		return
	case srcRec.down:
		c.mu.Unlock()
		reject("src-down")
		return
	case srcRec.draining:
		c.mu.Unlock()
		reject("src-draining")
		return
	case !c.inTopology(m.Dst) || m.Dst == m.Src:
		c.mu.Unlock()
		reject("bad-endpoints")
		return
	case c.nodes[m.Dst].excluded():
		c.mu.Unlock()
		reject("endpoint-excluded")
		return
	}
	q := c.cfg.Quotas[m.Tenant] // a tenant not listed is unlimited
	used := c.usage[m.Tenant]
	switch {
	case q.MaxConns > 0 && used+1 > q.MaxConns:
		c.mu.Unlock()
		reject("quota-conns")
		return
	case q.MaxBandwidth > 0 && (used+1)*c.cfg.UnitBW > q.MaxBandwidth:
		c.mu.Unlock()
		reject("quota-bandwidth")
		return
	}
	c.usage[m.Tenant]++
	c.pendingConns[m.Conn] = &pendingConn{tenant: m.Tenant}
	exclude := c.excludedNodesLocked()
	c.mu.Unlock()
	c.latAdmission.ObserveSince(start)

	c.work.run(func() { c.establishWorker(from, m, exclude, start) })
}

// establishWorker drives one admitted establishment to completion, then
// carries out the releases that arrived while it was in flight.
// start is the request's arrival time, closing the total-latency span.
func (c *Coordinator) establishWorker(from graph.NodeID, m proto.EstablishRequest, exclude []graph.NodeID, start time.Time) {
	defer c.latTotal.ObserveSince(start)
	fail := func(reason string) {
		c.mu.Lock()
		p := c.pendingConns[m.Conn]
		delete(c.pendingConns, m.Conn)
		c.usage[m.Tenant]--
		c.mu.Unlock()
		c.log.Info("establish failed", "conn", int64(m.Conn), "tenant", m.Tenant, "reason", reason)
		_ = c.ep.Send(from, proto.EstablishReply{Conn: m.Conn, Reason: reason})
		for _, to := range p.releases {
			_ = c.ep.Send(to, proto.ReleaseReply{Conn: m.Conn, OK: true, Reason: "not-found"})
		}
	}
	cmdStart := time.Now()
	res, err := c.command(m.Src, proto.ConnCommand{
		Op: proto.OpEstablish, Conn: m.Conn, Dst: m.Dst, Exclude: exclude,
	})
	c.latEstablish.ObserveSince(cmdStart)
	if err != nil {
		fail("establish-command: " + err.Error())
		return
	}
	if !res.OK {
		fail(res.Reason)
		return
	}
	c.mu.Lock()
	p := c.pendingConns[m.Conn]
	delete(c.pendingConns, m.Conn)
	if len(p.releases) == 0 {
		c.conns[m.Conn] = &connRec{
			tenant: m.Tenant, src: m.Src, dst: m.Dst,
			primary: res.Primary, backups: res.Backups,
		}
	} else {
		c.usage[m.Tenant]--
	}
	c.mu.Unlock()
	c.log.Info("connection admitted", "conn", int64(m.Conn), "tenant", m.Tenant,
		"src", int(m.Src), "dst", int(m.Dst), "backups", len(res.Backups))
	_ = c.ep.Send(from, proto.EstablishReply{
		Conn: m.Conn, OK: true, Primary: res.Primary, Backups: res.Backups,
	})
	if len(p.releases) > 0 {
		c.release(m.Src, m.Conn, m.Tenant, p.releases...)
	}
}

// handleRelease releases a tenant's connection via its source agent.
// Releasing an unknown connection succeeds (idempotent for retries); a
// release of an establishment still in flight is carried out, and
// answered, when the establishment settles.
func (c *Coordinator) handleRelease(from graph.NodeID, m proto.ReleaseRequest) {
	c.mu.Lock()
	if p := c.pendingConns[m.Conn]; p != nil {
		switch {
		case p.tenant != m.Tenant:
			c.mu.Unlock()
			_ = c.ep.Send(from, proto.ReleaseReply{Conn: m.Conn, Reason: "wrong-tenant"})
			return
		case !slices.Contains(p.releases, from):
			p.releases = append(p.releases, from)
		}
		c.mu.Unlock()
		return
	}
	rec, ok := c.conns[m.Conn]
	if !ok {
		c.mu.Unlock()
		_ = c.ep.Send(from, proto.ReleaseReply{Conn: m.Conn, OK: true, Reason: "not-found"})
		return
	}
	if rec.tenant != m.Tenant {
		c.mu.Unlock()
		_ = c.ep.Send(from, proto.ReleaseReply{Conn: m.Conn, Reason: "wrong-tenant"})
		return
	}
	src, tenant := rec.src, rec.tenant
	delete(c.conns, m.Conn)
	c.usage[tenant]--
	c.mu.Unlock()

	c.work.run(func() { c.release(src, m.Conn, tenant, from) })
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

// handleDrain starts a graceful drain: the node is marked
// unschedulable (new routes avoid it, its readiness probe flips), its
// transiting connections are migrated onto routes that avoid it, and
// connections originated or terminated there are released. The reply
// reports migrated and dropped counts.
func (c *Coordinator) handleDrain(from graph.NodeID, m proto.DrainRequest) {
	if !c.inTopology(m.Node) {
		_ = c.ep.Send(from, proto.DrainReply{Node: m.Node, Reason: "unknown-node"})
		return
	}
	c.mu.Lock()
	rec := &c.nodes[m.Node]
	switch {
	case !rec.registered:
		c.mu.Unlock()
		_ = c.ep.Send(from, proto.DrainReply{Node: m.Node, Reason: "unregistered"})
		return
	case rec.down:
		c.mu.Unlock()
		_ = c.ep.Send(from, proto.DrainReply{Node: m.Node, Reason: "node-down"})
		return
	case c.drains[m.Node]:
		// The running drain's worker replies to its requester; a retry
		// that raced it will be answered by the already-drained case below
		// on its next attempt.
		c.mu.Unlock()
		return
	case rec.draining:
		c.mu.Unlock()
		_ = c.ep.Send(from, proto.DrainReply{Node: m.Node, OK: true, Reason: "already-drained"})
		return
	}
	rec.draining = true
	c.drains[m.Node] = true
	c.mu.Unlock()

	c.tracer.DrainStart(int(m.Node))
	c.log.Info("drain started", "node", int(m.Node))
	// Best-effort notification: the node's own readiness probe flips
	// unready.
	_ = c.ep.Send(m.Node, proto.Unschedulable{Node: m.Node, On: true})

	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.drainWorker(from, m.Node)
	}()
}

// drainWorker migrates or releases every connection involving the
// draining node, then reports completion.
func (c *Coordinator) drainWorker(from graph.NodeID, node graph.NodeID) {
	type job struct {
		id  lsdb.ConnID
		rec connRec
	}
	var terminal, transiting []job
	c.mu.Lock()
	for id, rec := range c.conns {
		switch {
		case rec.src == node || rec.dst == node:
			terminal = append(terminal, job{id, *rec})
		case routesInvolve(rec, node):
			transiting = append(transiting, job{id, *rec})
		}
	}
	c.mu.Unlock()

	migrated, dropped := 0, 0
	drop := func(j job, reason string) {
		c.mu.Lock()
		if _, ok := c.conns[j.id]; ok {
			delete(c.conns, j.id)
			c.usage[j.rec.tenant]--
		}
		c.mu.Unlock()
		dropped++
		c.log.Info("drain dropped connection", "node", int(node), "conn", int64(j.id), "reason", reason)
	}

	// Connections originated or terminated at the node are not
	// re-routable: release them so their bandwidth frees network-wide.
	for _, j := range terminal {
		_, err := c.command(j.rec.src, proto.ConnCommand{Op: proto.OpRelease, Conn: j.id})
		reason := "terminal"
		if err != nil {
			reason = "terminal (release: " + err.Error() + ")"
		}
		drop(j, reason)
	}
	// Transiting connections migrate: release the old channels, then
	// establish again under the same connection ID around every node
	// excluded by then, one that died mid-drain included.
	for _, j := range transiting {
		if _, err := c.command(j.rec.src, proto.ConnCommand{Op: proto.OpRelease, Conn: j.id}); err != nil {
			drop(j, "release-command: "+err.Error())
			continue
		}
		c.mu.Lock()
		exclude := c.excludedNodesLocked()
		c.mu.Unlock()
		res, err := c.command(j.rec.src, proto.ConnCommand{
			Op: proto.OpEstablish, Conn: j.id, Dst: j.rec.dst, Exclude: exclude,
		})
		if err != nil || !res.OK {
			reason := "re-establish failed"
			if err != nil {
				reason = "re-establish: " + err.Error()
			} else if res.Reason != "" {
				reason = "re-establish: " + res.Reason
			}
			drop(j, reason)
			continue
		}
		c.mu.Lock()
		if rec, ok := c.conns[j.id]; ok {
			rec.primary = res.Primary
			rec.backups = res.Backups
		}
		c.mu.Unlock()
		migrated++
		c.log.Info("drain migrated connection", "node", int(node), "conn", int64(j.id))
	}

	c.mu.Lock()
	delete(c.drains, node)
	c.mu.Unlock()
	c.tracer.DrainDone(int(node), migrated, dropped)
	c.log.Info("drain done", "node", int(node), "migrated", migrated, "dropped", dropped)
	_ = c.ep.Send(from, proto.DrainReply{Node: node, OK: true, Migrated: migrated, Dropped: dropped})
}

// routesInvolve reports whether any of the connection's recorded routes
// pass through the node.
func routesInvolve(rec *connRec, node graph.NodeID) bool {
	for _, n := range rec.primary {
		if n == node {
			return true
		}
	}
	for _, b := range rec.backups {
		for _, n := range b {
			if n == node {
				return true
			}
		}
	}
	return false
}

// nextID issues the next RPC identifier, or ErrClosed once Close began.
func (c *Coordinator) nextID() (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	c.rpcID++
	return c.rpcID, nil
}

// command runs one node-command round trip. Retransmissions reuse the
// sequence number, so the agent's dedup absorbs duplicates and replays
// the recorded result.
func (c *Coordinator) command(node graph.NodeID, cmd proto.ConnCommand) (proto.ConnCommandResult, error) {
	seq, err := c.nextID()
	if err != nil {
		return proto.ConnCommandResult{}, err
	}
	cmd.Seq = seq
	out, err := call(c.ep, node, cmd, proto.ConnCommandResult{Seq: seq}, c.cfg.RetryLimit, c.cfg.RPCTimeout, c.stop)
	if err != nil {
		return proto.ConnCommandResult{}, err
	}
	return out.(proto.ConnCommandResult), nil
}
