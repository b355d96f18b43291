package router

import (
	"errors"
	"fmt"
	"time"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/telemetry"
)

// Exported signalling errors.
var (
	// ErrNoRoute indicates no feasible primary route in the current view.
	ErrNoRoute = fmt.Errorf("router: no feasible primary route")
	// ErrNoBackup indicates no backup channel could be established.
	ErrNoBackup = fmt.Errorf("router: no backup channel could be established")
	// ErrTimeout indicates a signalling round trip timed out.
	ErrTimeout = fmt.Errorf("router: signalling timeout")
	// ErrClosed indicates the router was closed.
	ErrClosed = fmt.Errorf("router: closed")
)

// Establish sets up a DR-connection from this router to dst: it reserves
// the primary channel hop-by-hop, then registers the backup channel
// carrying the primary's LSET. If the backup cannot be established the
// primary is torn down and the request fails (the backup-required
// admission policy).
func (r *Router) Establish(id lsdb.ConnID, dst graph.NodeID) (ConnInfo, error) {
	start := time.Now()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ConnInfo{}, ErrClosed
	}
	if _, dup := r.conns[id]; dup {
		r.mu.Unlock()
		return ConnInfo{}, fmt.Errorf("router: connection %d already exists", id)
	}
	primary := r.routePrimaryLocked(dst)
	r.mu.Unlock()
	// The span context rides inside every signalling packet of this
	// connection so remote hops stamp the same trace ID; derived only
	// when tracing to keep the untraced hot path at a nil check.
	var trace uint64
	if r.tracer.Enabled() {
		trace = telemetry.ConnTrace(r.schemeName, int64(id))
		r.tracer.ConnRequest(r.schemeName, trace, int64(id))
	}
	if primary.Empty() {
		r.tracer.ConnReject(r.schemeName, trace, int64(id), "no-route")
		return ConnInfo{}, ErrNoRoute
	}

	if err := r.setupChannel(id, proto.Primary, primary, nil, trace); err != nil {
		r.tracer.ConnReject(r.schemeName, trace, int64(id), "no-capacity")
		return ConnInfo{}, err
	}
	r.tracer.PrimarySetup(r.schemeName, trace, int64(id), primary.Hops())

	// Route and register up to cfg.Backups backup channels: the first may
	// overlap the primary as a last resort, later ones must be disjoint
	// from everything established so far.
	var (
		backups  []graph.Path
		firstErr error
	)
	avoid := primary.LinkSet()
	for k := 0; k < r.cfg.Backups; k++ {
		r.mu.Lock()
		backup := r.routeBackupLocked(dst, primary, avoid)
		r.mu.Unlock()
		if backup.Empty() {
			break
		}
		if k > 0 && (backup.SharedLinks(primary) > 0 || backup.OverlapsAny(backups)) {
			break
		}
		if err := r.setupChannel(id, proto.Backup, backup, primary.Links(), trace); err != nil {
			r.tracer.BackupRegister(r.schemeName, trace, int64(id), backup.Hops(), "rejected")
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		r.tracer.BackupRegister(r.schemeName, trace, int64(id), backup.Hops(), "")
		backups = append(backups, backup)
		for _, l := range backup.Links() {
			avoid[l] = struct{}{}
		}
	}
	if len(backups) == 0 {
		// Retransmit the rollback sweep only when the backup failure was a
		// timeout: the signalling path is then known lossy.
		r.teardownChannel(id, proto.Primary, primary, -1, trace, errors.Is(firstErr, ErrTimeout))
		r.tracer.ConnReject(r.schemeName, trace, int64(id), "no-backup")
		if firstErr != nil {
			return ConnInfo{}, fmt.Errorf("%w: %v", ErrNoBackup, firstErr)
		}
		return ConnInfo{}, ErrNoBackup
	}

	return r.commitConn(id, dst, primary, backups, trace, start)
}

// commitConn records a fully signalled connection and emits the
// establishment telemetry; shared by Establish and EstablishRoutes.
func (r *Router) commitConn(id lsdb.ConnID, dst graph.NodeID, primary graph.Path, backups []graph.Path, trace uint64, start time.Time) (ConnInfo, error) {
	c := &conn{
		info: ConnInfo{
			ID:      id,
			Src:     r.cfg.Node,
			Dst:     dst,
			Primary: primary.Nodes(r.g),
			Backup:  backups[0].Nodes(r.g),
		},
		primaryPath: primary,
		backupPaths: backups,
		trace:       trace,
	}
	for _, b := range backups {
		c.info.Backups = append(c.info.Backups, b.Nodes(r.g))
	}
	r.mu.Lock()
	r.conns[id] = c
	info := c.info
	r.mu.Unlock()
	r.log.Info("connection established", "conn", int64(id), "dst", int(dst),
		"primaryHops", primary.Hops(), "backups", len(backups))
	r.tracer.ConnEstablish(r.schemeName, trace, int64(id), primary.Hops())
	r.mEstablishSeconds.Observe(time.Since(start).Seconds())
	r.mActiveConns.Add(1)
	return info, nil
}

// EstablishRoutes sets up a DR-connection along externally computed
// routes (the control plane's route-finder service): the primary is
// reserved hop-by-hop, then each provided backup is registered in order,
// all with the router's usual retry/backoff signalling. At least one
// backup must register or the primary is rolled back (the same
// backup-required admission policy as Establish). Unlike Establish, no
// local re-routing happens on a mid-path rejection — route selection
// belongs to the caller.
func (r *Router) EstablishRoutes(id lsdb.ConnID, dst graph.NodeID, primaryNodes []graph.NodeID, backupNodes [][]graph.NodeID) (ConnInfo, error) {
	start := time.Now()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ConnInfo{}, ErrClosed
	}
	if _, dup := r.conns[id]; dup {
		r.mu.Unlock()
		return ConnInfo{}, fmt.Errorf("router: connection %d already exists", id)
	}
	r.mu.Unlock()

	var trace uint64
	if r.tracer.Enabled() {
		trace = telemetry.ConnTrace(r.schemeName, int64(id))
		r.tracer.ConnRequest(r.schemeName, trace, int64(id))
	}
	primary, err := r.pathFromNodes(primaryNodes, dst)
	if err != nil {
		r.tracer.ConnReject(r.schemeName, trace, int64(id), "no-route")
		return ConnInfo{}, fmt.Errorf("%w: %v", ErrNoRoute, err)
	}

	if err := r.setupChannel(id, proto.Primary, primary, nil, trace); err != nil {
		r.tracer.ConnReject(r.schemeName, trace, int64(id), "no-capacity")
		return ConnInfo{}, err
	}
	r.tracer.PrimarySetup(r.schemeName, trace, int64(id), primary.Hops())

	var (
		backups  []graph.Path
		firstErr error
	)
	for _, nodes := range backupNodes {
		backup, err := r.pathFromNodes(nodes, dst)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if err := r.setupChannel(id, proto.Backup, backup, primary.Links(), trace); err != nil {
			r.tracer.BackupRegister(r.schemeName, trace, int64(id), backup.Hops(), "rejected")
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		r.tracer.BackupRegister(r.schemeName, trace, int64(id), backup.Hops(), "")
		backups = append(backups, backup)
	}
	if len(backups) == 0 {
		r.teardownChannel(id, proto.Primary, primary, -1, trace, errors.Is(firstErr, ErrTimeout))
		r.tracer.ConnReject(r.schemeName, trace, int64(id), "no-backup")
		if firstErr != nil {
			return ConnInfo{}, fmt.Errorf("%w: %v", ErrNoBackup, firstErr)
		}
		return ConnInfo{}, ErrNoBackup
	}
	return r.commitConn(id, dst, primary, backups, trace, start)
}

// pathFromNodes validates a commanded route: it must start at this
// router, end at dst, and follow existing links.
func (r *Router) pathFromNodes(nodes []graph.NodeID, dst graph.NodeID) (graph.Path, error) {
	if len(nodes) < 2 {
		return graph.Path{}, fmt.Errorf("route %v too short", nodes)
	}
	if nodes[0] != r.cfg.Node {
		return graph.Path{}, fmt.Errorf("route %v does not start at node %d", nodes, r.cfg.Node)
	}
	if nodes[len(nodes)-1] != dst {
		return graph.Path{}, fmt.Errorf("route %v does not end at node %d", nodes, dst)
	}
	return graph.PathFromNodes(r.g, nodes)
}

// Release terminates a connection originated at this router.
func (r *Router) Release(id lsdb.ConnID) error {
	r.mu.Lock()
	c, ok := r.conns[id]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("router: connection %d not found", id)
	}
	delete(r.conns, id)
	info := c.info
	primary, backups, trace := c.primaryPath, c.backupPaths, c.trace
	r.mu.Unlock()

	r.log.Info("connection released", "conn", int64(id))
	if len(backups) > 0 {
		r.tracer.BackupRelease(r.schemeName, trace, int64(id), len(backups))
	}
	r.mActiveConns.Add(-1)
	// primaryPath always names the route currently carrying primary
	// bandwidth (the activated backup after a switch); backupPaths only
	// the still-registered backup channels.
	_ = info
	r.teardownChannel(id, proto.Primary, primary, -1, trace, false)
	for _, b := range backups {
		r.teardownChannel(id, proto.Backup, b, -1, trace, false)
	}
	r.tracer.ConnTeardown(r.schemeName, trace, int64(id))
	return nil
}

// setupChannel runs one hop-by-hop setup round trip, retransmitting timed
// out attempts with jittered exponential backoff. All attempts share the
// SetupTimeout budget and the same sequence number, so the caller-visible
// deadline is unchanged and duplicates are absorbed by per-hop dedup.
func (r *Router) setupChannel(id lsdb.ConnID, kind proto.ChannelKind, path graph.Path, lset []graph.LinkID, trace uint64) error {
	key := pendingKey{conn: id, channel: kind}
	r.mu.Lock()
	ch := r.getSetupChLocked()
	seq := r.nextSeqLocked()
	r.pending[key] = pendingSetup{ch: ch, seq: seq}
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.pending, key)
		// Drain a reply that landed after the last receive, then recycle:
		// with the pending entry gone no handler can touch ch again.
		select {
		case <-ch:
		default:
		}
		r.setupChPool = append(r.setupChPool, ch)
		r.mu.Unlock()
	}()

	msg := proto.Setup{
		Conn:        id,
		Channel:     kind,
		Route:       path.Nodes(r.g),
		Hop:         0,
		PrimaryLSET: lset,
		Trace:       trace,
		Seq:         seq,
	}
	attempts := r.cfg.RetryLimit
	if attempts < 1 {
		attempts = 1
	}
	deadline := time.Now().Add(r.cfg.SetupTimeout)
	for a := 0; a < attempts; a++ {
		if a > 0 {
			r.tracer.Retry(r.schemeName, trace, int64(id), "setup")
		}
		r.send(r.cfg.Node, msg)
		timer := time.NewTimer(r.attemptTimeout(a, attempts, time.Until(deadline)))
		select {
		case res := <-ch:
			timer.Stop()
			if !res.OK {
				// The reply is definitive, so roll back the hops reserved
				// before the failure without blind retransmission.
				r.teardownChannel(id, kind, path, res.FailedHop, trace, false)
				return fmt.Errorf("router: %s setup rejected at hop %d: %s", kind, res.FailedHop, res.Reason)
			}
			return nil
		case <-timer.C:
		case <-r.stop:
			timer.Stop()
			return ErrClosed
		}
	}
	// Every attempt timed out: sweep the whole route. Stragglers of the
	// final attempt trail this teardown in per-pair FIFO order, and a
	// transport that reorders past it is covered by the teardown tombstone.
	r.teardownChannel(id, kind, path, -1, trace, true)
	return ErrTimeout
}

// teardownChannel releases a channel's reservations along a route. upTo
// bounds the number of out-links released (-1 = all). With retry set the
// sweep is retransmitted on a backoff schedule: teardown has no reply to
// arm a retry on, so callers pass retry only when loss was already
// observed; dedup absorbs the duplicates on hops the original reached.
func (r *Router) teardownChannel(id lsdb.ConnID, kind proto.ChannelKind, path graph.Path, upTo int, trace uint64, retry bool) {
	nodes := path.Nodes(r.g)
	if len(nodes) < 2 {
		return
	}
	if upTo < 0 || upTo > len(nodes)-1 {
		upTo = len(nodes) - 1
	}
	if upTo == 0 {
		return
	}
	r.mu.Lock()
	seq := r.nextSeqLocked()
	r.mu.Unlock()
	msg := proto.Teardown{
		Conn:    id,
		Channel: kind,
		Route:   nodes,
		Hop:     0,
		UpTo:    upTo,
		Trace:   trace,
		Seq:     seq,
	}
	r.send(r.cfg.Node, msg)
	if !retry || r.cfg.RetryLimit < 2 {
		return
	}
	for a := 1; a < r.cfg.RetryLimit; a++ {
		delay := time.Duration(float64(r.cfg.SetupTimeout) *
			float64(uint64(1)<<a) / float64(uint64(1)<<r.cfg.RetryLimit))
		time.AfterFunc(delay, func() {
			r.mu.Lock()
			closed := r.closed
			r.mu.Unlock()
			if closed {
				return
			}
			r.tracer.Retry(r.schemeName, trace, int64(id), "teardown")
			r.send(r.cfg.Node, msg)
		})
	}
}

// handleSetup processes one hop of a channel setup. Processing is
// idempotent: a retransmission replays the first attempt's outcome (reply
// or forward) without touching reservation state, and a setup arriving
// after the connection's teardown (reordering transport) is discarded.
func (r *Router) handleSetup(m proto.Setup) {
	i := m.Hop
	if i < 0 || i >= len(m.Route) || m.Route[i] != r.cfg.Node {
		return
	}
	origin := m.Route[0]
	key := dedupKey{kind: sigSetup, conn: m.Conn, channel: m.Channel, seq: m.Seq, hop: i}

	r.mu.Lock()
	if r.entombedLocked(m.Conn, m.Seq) {
		r.mu.Unlock()
		r.tracer.DedupHit(m.Trace, int64(m.Conn), int(r.cfg.Node), "stale-setup")
		return
	}
	if rec, dup := r.seenSig[key]; dup {
		r.mu.Unlock()
		r.tracer.DedupHit(m.Trace, int64(m.Conn), int(r.cfg.Node), "setup")
		// Replay the recorded outcome: the retransmission still needs the
		// reply (or forward) its lost predecessor never produced.
		switch {
		case !rec.ok:
			r.send(origin, proto.SetupResult{
				Conn: m.Conn, Channel: m.Channel, FailedHop: i, Reason: rec.reason, Seq: m.Seq,
			})
		case i == len(m.Route)-1:
			r.send(origin, proto.SetupResult{Conn: m.Conn, Channel: m.Channel, OK: true, Seq: m.Seq})
		default:
			m.Hop++
			r.send(m.Route[i+1], m)
		}
		return
	}
	if i == len(m.Route)-1 {
		r.recordSeenLocked(key, dedupRec{ok: true})
		r.mu.Unlock()
		r.tracer.HopSignal(m.Trace, int64(m.Conn), int(r.cfg.Node), -1, m.Channel.String())
		r.send(origin, proto.SetupResult{Conn: m.Conn, Channel: m.Channel, OK: true, Seq: m.Seq})
		return
	}
	next := m.Route[i+1]
	l, ok := r.g.LinkBetween(r.cfg.Node, next)
	if !ok {
		reason := fmt.Sprintf("no link %d->%d", r.cfg.Node, next)
		r.recordSeenLocked(key, dedupRec{ok: false, reason: reason})
		r.mu.Unlock()
		r.send(origin, proto.SetupResult{
			Conn: m.Conn, Channel: m.Channel, FailedHop: i, Reason: reason, Seq: m.Seq,
		})
		return
	}

	var err error
	switch {
	case r.downNbr[next]:
		err = fmt.Errorf("link %d->%d is down", r.cfg.Node, next)
	case m.Channel == proto.Primary:
		if err = r.db.ReservePrimary(m.Conn, l); err == nil {
			if r.transitPrim[l] == nil {
				r.transitPrim[l] = make(map[lsdb.ConnID]transitRec)
			}
			r.transitPrim[l][m.Conn] = transitRec{src: origin, trace: m.Trace}
		}
	default:
		err = r.db.RegisterBackup(m.Conn, l, m.PrimaryLSET)
	}
	if err == nil {
		r.markDirtyLocked()
		r.recordSeenLocked(key, dedupRec{ok: true})
	} else {
		r.recordSeenLocked(key, dedupRec{ok: false, reason: err.Error()})
	}
	r.mu.Unlock()

	if err != nil {
		r.send(origin, proto.SetupResult{
			Conn: m.Conn, Channel: m.Channel, FailedHop: i, Reason: err.Error(), Seq: m.Seq,
		})
		return
	}
	r.tracer.HopSignal(m.Trace, int64(m.Conn), int(r.cfg.Node), int(l), m.Channel.String())
	m.Hop++
	r.send(next, m)
}

// handleSetupResult completes a pending setup round trip; replies whose
// sequence does not match the pending attempt are stragglers from a
// superseded round trip and are dropped. Delivery happens under mu so a
// reply can never land in a channel already drained and pooled by the
// round trip's owner.
func (r *Router) handleSetupResult(m proto.SetupResult) {
	r.mu.Lock()
	p, ok := r.pending[pendingKey{conn: m.Conn, channel: m.Channel}]
	if ok && m.Seq == p.seq {
		select {
		case p.ch <- m:
		default:
		}
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	if ok {
		r.tracer.DedupHit(0, int64(m.Conn), int(r.cfg.Node), "stale-setup-result")
	}
}

// getSetupChLocked pops a pooled setup reply channel, or makes one.
// Callers must hold r.mu.
func (r *Router) getSetupChLocked() chan proto.SetupResult {
	if n := len(r.setupChPool); n > 0 {
		ch := r.setupChPool[n-1]
		r.setupChPool = r.setupChPool[:n-1]
		return ch
	}
	return make(chan proto.SetupResult, 1)
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
	key := dedupKey{kind: sigTeardown, conn: m.Conn, channel: m.Channel, seq: m.Seq, hop: i}
	released := graph.LinkID(-1)
	r.mu.Lock()
	r.recordTombstoneLocked(m.Conn, m.Seq)
	_, dup := r.seenSig[key]
	if !dup {
		r.recordSeenLocked(key, dedupRec{ok: true})
		if l, ok := r.g.LinkBetween(r.cfg.Node, next); ok {
			r.releaseLocalLocked(m.Conn, m.Channel, l)
			r.markDirtyLocked()
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
// rollbacks). Callers must hold r.mu.
func (r *Router) releaseLocalLocked(id lsdb.ConnID, kind proto.ChannelKind, l graph.LinkID) {
	if kind == proto.Primary {
		if r.db.HasPrimary(id, l) {
			_ = r.db.ReleasePrimary(id, l)
		}
		if m := r.transitPrim[l]; m != nil {
			delete(m, id)
		}
		return
	}
	if r.db.HasBackup(id, l) {
		_ = r.db.ReleaseBackup(id, l)
	}
}
