package router

import (
	"errors"
	"fmt"
	"time"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lifecycle"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/transport"
)

// Exported signalling errors.
var (
	// ErrNoRoute indicates no feasible primary route in the current view.
	ErrNoRoute = fmt.Errorf("router: no feasible primary route")
	// ErrNoBackup indicates no backup channel could be established.
	ErrNoBackup = fmt.Errorf("router: no backup channel could be established")
	// ErrTimeout indicates a signalling round trip timed out.
	ErrTimeout = fmt.Errorf("router: %w", lifecycle.ErrTimeout)
	// ErrClosed indicates the router was closed.
	ErrClosed = fmt.Errorf("router: closed")
)

// Establish sets up a DR-connection from this router to dst: it reserves
// the primary channel hop-by-hop, then registers the backup channels
// carrying the primary's LSET. If no backup can be established the
// primary is torn down and the request fails (the backup-required
// admission policy). All routes come from the local link-state view before
// anything is reserved, as the simulator's schemes take them from one
// snapshot. A dst outside the topology is an error wrapping ErrNoRoute.
// Dead and draining nodes are avoided by link state alone: their
// neighbours advertise the links to them empty.
//
// The ID is claimed by a nil record in conns, made under the lock that
// checked for duplicates, so a concurrent request for the same ID fails
// at once instead of sharing this one's round trips.
func (r *Router) Establish(id lsdb.ConnID, dst graph.NodeID) (ConnInfo, error) {
	if dst < 0 || int(dst) >= r.g.NumNodes() {
		return ConnInfo{}, fmt.Errorf("%w: destination %d outside the topology", ErrNoRoute, dst)
	}
	start := time.Now()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ConnInfo{}, ErrClosed
	}
	if _, taken := r.conns[id]; taken {
		r.mu.Unlock()
		return ConnInfo{}, fmt.Errorf("router: connection %d already exists", id)
	}
	r.conns[id] = nil
	r.mu.Unlock()

	c := &conn{Conn: lifecycle.Conn{ID: id, Src: r.cfg.Node, Dst: dst}}
	out := r.life.Establish(&c.Conn, func() (graph.Path, []graph.Path, error) {
		r.mu.Lock()
		defer r.mu.Unlock()
		// Minimum-hop and feasible on the view. Neither the primary nor a
		// backup leaves through a link to a neighbour declared down, which
		// the view shows empty: a backup might take it as a last resort.
		down := func(l graph.LinkID) bool {
			lk := r.g.Link(l)
			return lk.From == r.cfg.Node && r.isDownLocked(lk.To)
		}
		p := r.view.RoutePrimary(r.cfg.Node, dst, down)
		if p.Empty() {
			return p, nil, ErrNoRoute
		}
		return p, r.view.Backups(p, nil, r.cfg.Backups, down), nil
	})
	if out.Reason != "" {
		r.mu.Lock()
		delete(r.conns, id)
		r.mu.Unlock()
		switch {
		case out.Reason != "no-backup":
			return ConnInfo{}, out.Err
		case out.Err != nil:
			return ConnInfo{}, fmt.Errorf("%w: %v", ErrNoBackup, out.Err)
		}
		return ConnInfo{}, ErrNoBackup
	}
	// Not yet shared: a failure report may start a switch once c is in
	// conns.
	c.publish(r.g)
	r.log.Info("connection established", "conn", int64(id), "dst", int(dst),
		"primaryHops", c.Primary.Hops(), "backups", len(c.Backups))
	r.mu.Lock()
	r.conns[id] = c
	info := c.info
	r.mu.Unlock()
	r.mEstablishSeconds.ObserveSince(start)
	r.mActiveConns.Add(1)
	return info, nil
}

// backupsAround routes backups for c until it holds k, never over the
// edge of link down, which failed or is held down: the view may not carry
// the news yet.
func (r *Router) backupsAround(c *lifecycle.Conn, down graph.LinkID, k int) []graph.Path {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.view.Backups(c.Primary, c.Backups, k, func(l graph.LinkID) bool {
		return r.g.Link(l).Edge == r.g.Link(down).Edge
	})
}

// Release terminates a connection originated at this router. A switch in
// flight releases whatever it ends with, and a dropped connection holds
// nothing, so only the record goes.
func (r *Router) Release(id lsdb.ConnID) error {
	r.mu.Lock()
	c := r.conns[id]
	if c == nil {
		r.mu.Unlock()
		return fmt.Errorf("router: connection %d not found", id)
	}
	delete(r.conns, id)
	idle := !c.switching && !c.info.Dead
	r.mu.Unlock()

	r.log.Info("connection released", "conn", int64(id))
	r.mActiveConns.Add(-1)
	if idle {
		r.life.Release(&c.Conn, false)
	}
	return nil
}

// channels are the router's channel operations for the lifecycle, each a
// signalling walk from this router.
type channels struct{ *Router }

// Reserve implements lifecycle.Channels.
func (r channels) Reserve(id lsdb.ConnID, trace uint64, p graph.Path) error {
	return r.walk(signal{sigID: sigID{kind: sigSetup, conn: id, channel: proto.Primary}, trace: trace}, p, proto.Primary)
}

// Register implements lifecycle.Channels.
func (r channels) Register(id lsdb.ConnID, trace uint64, b, primary graph.Path) error {
	return r.walk(signal{sigID: sigID{kind: sigSetup, conn: id, channel: proto.Backup}, lset: primary.Links(), trace: trace},
		b, proto.Backup)
}

// Activate implements lifecycle.Channels: spare reservations become
// primary bandwidth hop by hop.
func (r channels) Activate(id lsdb.ConnID, trace uint64, b graph.Path) error {
	return r.walk(signal{sigID: sigID{kind: sigActivate, conn: id}, trace: trace}, b, proto.Backup, proto.Primary)
}

// Release implements lifecycle.Channels.
func (r channels) Release(id lsdb.ConnID, trace uint64, k proto.ChannelKind, p graph.Path, lossy bool) {
	r.teardownChannel(id, k, p, 0, -1, trace, lossy)
}

// ReleaseOutside implements lifecycle.Channels: links the new primary
// reuses keep their reservation (the activation left it in place).
func (r channels) ReleaseOutside(id lsdb.ConnID, trace uint64, old, keep graph.Path) {
	r.releaseOutside(id, trace, proto.Primary, old, keep)
}

// releaseOutside releases old's channel of kind k on the links keep does
// not traverse: the sweep is sent once per maximal run of them, each
// starting at the run's first router, and retransmitted.
func (r *Router) releaseOutside(id lsdb.ConnID, trace uint64, k proto.ChannelKind, old, keep graph.Path) {
	links := old.Links()
	for from := 0; from < len(links); from++ {
		if keep.Contains(links[from]) {
			continue
		}
		upTo := from + 1
		for upTo < len(links) && !keep.Contains(links[upTo]) {
			upTo++
		}
		r.teardownChannel(id, k, old, from, upTo, trace, true)
		from = upTo
	}
}

// signal is one hop-by-hop signalling packet in kind-independent form.
// Every DRTP walk has one shape — visit the route's nodes in order, apply
// one effect to each out-link, answer the source from the last hop — so
// Setup (primary reserve, backup register) and Activate share the
// originator's round trip and the hop handler; only the link operation,
// the reply message and the forwarded wire struct depend on the sigID.
type signal struct {
	sigID
	route []graph.NodeID
	hop   int
	lset  []graph.LinkID // backup register only: the primary's links
	trace uint64
	seq   uint64
}

// sigResult is a walk's outcome: what a hop remembers for replay and what
// the reply carries back to the source.
type sigResult struct {
	reason    string
	failedHop int32
	ok        bool
}

// packet returns the wire message carrying s.
func (s *signal) packet() proto.Message {
	if s.kind == sigActivate {
		return proto.Activate{Conn: s.conn, Route: s.route, Hop: s.hop, Trace: s.trace, Seq: s.seq}
	}
	return proto.Setup{Conn: s.conn, Channel: s.channel, Route: s.route, Hop: s.hop,
		PrimaryLSET: s.lset, Trace: s.trace, Seq: s.seq}
}

// reply returns the wire message reporting res to s's source.
func (s *signal) reply(res sigResult) proto.Message {
	if s.kind == sigActivate {
		return proto.ActivateResult{Conn: s.conn, OK: res.ok, Reason: res.reason, Seq: s.seq}
	}
	return proto.SetupResult{Conn: s.conn, Channel: s.channel, OK: res.ok, Reason: res.reason,
		FailedHop: int(res.failedHop), Seq: s.seq}
}

// replyKey is the key s's reply is awaited under.
func (s *signal) replyKey() proto.ReplyKey {
	var k proto.ReplyKey
	if s.kind == sigActivate {
		k, _ = proto.ReplyKeyOf(proto.ActivateResult{Seq: s.seq})
	} else {
		k, _ = proto.ReplyKeyOf(proto.SetupResult{Seq: s.seq})
	}
	return k
}

// role labels the walk in hop-signal events.
func (id sigID) role() string {
	if id.kind == sigActivate {
		return "activate"
	}
	return id.channel.String()
}

// sigLabels are the dedup reasons of each walk kind: a retransmission
// (also the retry label), a packet outrun by the connection's teardown,
// and a reply no round trip awaits (superseded or already answered).
var sigLabels = [...]struct{ dup, stale, staleResult string }{
	sigSetup:    {"setup", "stale-setup", "stale-setup-result"},
	sigActivate: {"activate", "stale-activate", "stale-activate-result"},
}

// roundTrip runs one signalling walk from this router and waits for the
// answer of its last (or rejecting) hop, retransmitting timed-out attempts
// with jittered exponential backoff. All attempts share the SetupTimeout
// budget and one sequence number, so the caller-visible deadline is
// unchanged and duplicates are absorbed by per-hop dedup. It returns
// ErrTimeout when no attempt was answered and ErrClosed when the router
// stopped; rolling back what the walk left behind is the caller's job.
func (r *Router) roundTrip(s signal) (sigResult, error) {
	r.mu.Lock()
	s.seq = r.nextSeqLocked()
	r.mu.Unlock()
	// The sequence number is this round trip's alone, so only a closed
	// endpoint refuses the wait.
	w, err := transport.Await(r.ep, s.replyKey())
	if err != nil {
		return sigResult{}, ErrClosed
	}
	defer w.Done()

	msg := s.packet()
	attempts := max(r.cfg.RetryLimit, 1)
	deadline := time.Now().Add(r.cfg.SetupTimeout)
	for a := 0; a < attempts; a++ {
		if a > 0 {
			r.tracer.Retry(r.schemeName, s.trace, int64(s.conn), sigLabels[s.kind].dup)
		}
		r.send(r.cfg.Node, msg)
		reply, err := w.Next(r.attemptTimeout(a, attempts, time.Until(deadline)), r.stop)
		switch {
		case err == nil:
			return resultOf(reply), nil
		case errors.Is(err, transport.ErrClosed):
			return sigResult{}, ErrClosed
		}
	}
	return sigResult{}, ErrTimeout
}

// resultOf reads a walk's outcome from its reply.
func resultOf(msg proto.Message) sigResult {
	if m, ok := msg.(proto.ActivateResult); ok {
		return sigResult{ok: m.OK, reason: m.Reason}
	}
	m := msg.(proto.SetupResult)
	return sigResult{ok: m.OK, failedHop: int32(m.FailedHop), reason: m.Reason}
}

// walk runs s along path and sweeps away what a failed walk may have left
// of the channels undo names: once, on the hops before the hop that
// rejected a setup; retransmitted, on the whole route, after a timeout or
// a failed activation (whose reply names no hop). Stragglers of a
// timed-out walk trail the sweep in per-pair FIFO order, and a transport
// that reorders past it is covered by the teardown tombstone.
func (r *Router) walk(s signal, path graph.Path, undo ...proto.ChannelKind) error {
	s.route = path.Nodes(r.g)
	res, err := r.roundTrip(s)
	switch {
	case err == nil && res.ok:
		return nil
	case errors.Is(err, ErrClosed):
		return err
	}
	upTo, lossy := -1, true
	switch {
	case err != nil:
	case s.kind == sigSetup:
		upTo, lossy = int(res.failedHop), false
		err = fmt.Errorf("router: %s setup rejected at hop %d: %s", s.channel, res.failedHop, res.reason)
	default:
		err = fmt.Errorf("router: activation rejected: %s", res.reason)
	}
	for _, k := range undo {
		r.teardownChannel(s.conn, k, path, 0, upTo, s.trace, lossy)
	}
	return err
}

// teardownChannel releases a channel's reservations on the out-links of
// route hops [from, upTo) (upTo -1 = to the end); the sweep starts at hop
// from's router. With retry set it is retransmitted (resend): callers pass
// retry only when loss was already observed or recovery runs in a
// degraded network.
func (r *Router) teardownChannel(id lsdb.ConnID, kind proto.ChannelKind, path graph.Path, from, upTo int, trace uint64, retry bool) {
	nodes := path.Nodes(r.g)
	if upTo < 0 || upTo > len(nodes)-1 {
		upTo = len(nodes) - 1
	}
	if from >= upTo {
		return
	}
	r.mu.Lock()
	seq := r.nextSeqLocked()
	r.mu.Unlock()
	msg := proto.Teardown{
		Conn:    id,
		Channel: kind,
		Route:   nodes,
		Hop:     from,
		UpTo:    upTo,
		Trace:   trace,
		Seq:     seq,
	}
	r.send(nodes[from], msg)
	if retry && r.cfg.RetryLimit > 1 {
		r.resend(nodes[from], msg, r.cfg.SetupTimeout>>(r.cfg.RetryLimit-1), trace, int64(id), "teardown")
	}
}

// resend retransmits msg to `to` RetryLimit-1 times, the a-th time after
// first·2^(a-1), unless the router has closed: the retry of messages no
// reply arms one for (teardown sweeps, failure reports). Hop dedup and the
// source's switch guard absorb the duplicates. Each resend is traced as a
// retry of op.
func (r *Router) resend(to graph.NodeID, msg proto.Message, first time.Duration, trace uint64, conn int64, op string) {
	for a := 1; a < r.cfg.RetryLimit; a++ {
		time.AfterFunc(first<<(a-1), func() {
			r.mu.Lock()
			closed := r.closed
			r.mu.Unlock()
			if !closed {
				r.tracer.Retry(r.schemeName, trace, conn, op)
				r.send(to, msg)
			}
		})
	}
}

// handleHop processes one hop of a setup or activate walk. The skeleton
// is shared: validate the hop, drop a packet the connection's teardown
// outran (reordering transport), replay a retransmission's recorded
// outcome without touching reservation state, otherwise apply the kind's
// link effect once and record it; then answer the source (rejection, or
// success at the last hop) or forward.
func (r *Router) handleHop(s signal) {
	i := s.hop
	if i < 0 || i >= len(s.route) || s.route[i] != r.cfg.Node {
		return
	}
	last := i == len(s.route)-1
	key := s.key(s.seq, i)
	labels := &sigLabels[s.kind]

	r.mu.Lock()
	if r.entombedLocked(s.conn, s.seq) {
		r.mu.Unlock()
		r.tracer.DedupHit(s.trace, int64(s.conn), int(r.cfg.Node), labels.stale)
		return
	}
	link := graph.LinkID(-1)
	res, dup := r.seenSig.Get(key)
	if !dup {
		res = sigResult{ok: true}
		if !last {
			var err error
			if link, err = r.applyLinkLocked(&s, s.route[i+1]); err != nil {
				res = sigResult{failedHop: int32(i), reason: err.Error()}
			} else {
				r.markDirtyLocked(link)
			}
		}
		r.seenSig.Put(key, res)
	}
	r.mu.Unlock()

	switch {
	case dup:
		// The retransmission still needs the reply (or forward) its lost
		// predecessor never produced.
		r.tracer.DedupHit(s.trace, int64(s.conn), int(r.cfg.Node), labels.dup)
	case res.ok:
		r.tracer.HopSignal(s.trace, int64(s.conn), int(r.cfg.Node), int(link), s.role())
	}
	if !res.ok || last {
		r.send(s.route[0], s.reply(res))
		return
	}
	s.hop++
	r.send(s.route[i+1], s.packet())
}

// applyLinkLocked applies s's effect to the out-link towards next — the
// one step of a hop that depends on the signalling kind. Callers must
// hold r.mu.
func (r *Router) applyLinkLocked(s *signal, next graph.NodeID) (graph.LinkID, error) {
	l, ok := r.g.LinkBetween(r.cfg.Node, next)
	switch {
	case !ok:
		return -1, fmt.Errorf("no link %d->%d", r.cfg.Node, next)
	case r.isDownLocked(next):
		return -1, fmt.Errorf("link %d->%d is down", r.cfg.Node, next)
	}
	var err error
	switch {
	case s.kind == sigSetup && s.channel != proto.Primary:
		// A registration the connection holds here already under the same
		// primary is the one asked for: a backup replacing another keeps
		// the links they share (replaceBackup).
		if err = r.db.RegisterBackup(s.conn, l, s.lset); err != nil && r.db.HasBackupUnder(s.conn, l, s.lset) {
			err = nil
		}
	case s.kind == sigSetup:
		err = r.db.ReservePrimary(s.conn, l)
	default:
		// Convert one spare activation slot into primary bandwidth (or, on
		// a link shared with the failed primary, keep its reservation);
		// failure here is spare-resource contention among conflicting
		// backups multiplexed on the same spare pool.
		err = r.db.PromoteBackup(s.conn, l)
	}
	if err == nil {
		if r.transit[l] == nil {
			r.transit[l] = make(map[lsdb.ConnID]graph.NodeID)
		}
		r.transit[l][s.conn] = s.route[0]
	}
	return l, err
}

// handleTeardown releases one hop and forwards the sweep. The release is
// deduped, but even a duplicate keeps forwarding: a retransmitted sweep
// must still reach hops the lost original never visited. Every teardown
// raises the connection's tombstone so late-arriving setups and activates
// cannot resurrect swept reservations.
func (r *Router) handleTeardown(m proto.Teardown) {
	i := m.Hop
	if i < 0 || i >= len(m.Route)-1 || m.Route[i] != r.cfg.Node || i >= m.UpTo {
		return
	}
	next := m.Route[i+1]
	key := sigID{kind: sigTeardown, conn: m.Conn, channel: m.Channel}.key(m.Seq, i)
	released := graph.LinkID(-1)
	r.mu.Lock()
	r.recordTombstoneLocked(m.Conn, m.Seq)
	_, dup := r.seenSig.Get(key)
	if !dup {
		r.seenSig.Put(key, sigResult{ok: true})
		if l, ok := r.g.LinkBetween(r.cfg.Node, next); ok {
			r.releaseLocalLocked(m.Conn, m.Channel, l)
			r.markDirtyLocked(l)
			released = l
		}
	}
	r.mu.Unlock()
	if dup {
		r.tracer.DedupHit(m.Trace, int64(m.Conn), int(r.cfg.Node), "teardown")
	} else if released >= 0 {
		r.tracer.HopSignal(m.Trace, int64(m.Conn), int(r.cfg.Node), int(released), "teardown")
	}
	if i+1 < m.UpTo {
		m.Hop++
		r.send(next, m)
	}
}

// releaseLocalLocked releases whatever the connection holds on link l for the
// given channel kind; releases are idempotent (teardown sweeps may cross
// rollbacks): the database refuses, without side effects, to release what
// is not there. The transit entry goes once the connection holds neither
// kind on l. Callers must hold r.mu.
func (r *Router) releaseLocalLocked(id lsdb.ConnID, kind proto.ChannelKind, l graph.LinkID) {
	holdsOther := r.db.HasBackup
	if kind != proto.Primary {
		_ = r.db.ReleaseBackup(id, l)
		holdsOther = r.db.HasPrimary
	} else {
		_ = r.db.ReleasePrimary(id, l)
	}
	if !holdsOther(id, l) {
		delete(r.transit[l], id)
	}
}
