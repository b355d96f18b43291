package router

import (
	"cmp"
	"slices"
	"time"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lifecycle"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/proto"
)

// sendHellos emits keep-alives to all live neighbors. With NbrRecovery,
// hellos keep flowing to neighbors declared down so a healed partition or
// restarted node can revive the adjacency.
func (r *Router) sendHellos() {
	r.mu.Lock()
	r.helloSeq++
	seq := r.helloSeq
	var nbrs []graph.NodeID
	for _, n := range r.nbrs {
		if r.cfg.NbrRecovery || !r.isDownLocked(n) {
			nbrs = append(nbrs, n)
		}
	}
	r.mu.Unlock()
	for _, n := range nbrs {
		r.send(n, proto.Hello{From: r.cfg.Node, Seq: seq})
	}
}

// handleHello refreshes the neighbor liveness timestamp. A hello from a
// neighbor declared down is ignored by default (the paper's model: a
// failed link stays failed); with NbrRecovery it revives the adjacency,
// unless the link is held down for the neighbor's drain: a drained
// neighbor is alive and keeps sending hellos. A hello from any other node
// changes nothing.
func (r *Router) handleHello(from graph.NodeID) {
	l, ok := r.g.LinkBetween(r.cfg.Node, from)
	if !ok {
		return
	}
	r.mu.Lock()
	recovered := false
	if held, down := r.downNbr[from]; down {
		if held || !r.cfg.NbrRecovery {
			r.mu.Unlock()
			return
		}
		delete(r.downNbr, from)
		r.markDirtyLocked(l)
		recovered = true
	}
	r.lastHello[from] = r.clock.Now()
	r.mu.Unlock()
	if recovered {
		r.log.Info("neighbor recovered", "neighbor", int(from))
	}
}

// isDownLocked reports whether the link to neighbor n is down, failed or
// held. Callers must hold r.mu.
func (r *Router) isDownLocked(n graph.NodeID) bool {
	_, down := r.downNbr[n]
	return down
}

// failureReport pairs a report with its destination.
type failureReport struct {
	src graph.NodeID
	msg proto.FailureReport
}

// sendFailureReports transmits reports, each retransmitted on a backoff
// schedule: the report is the protocol's recovery trigger, so a lost one
// would strand affected connections on a failed primary.
func (r *Router) sendFailureReports(reports []failureReport) {
	for _, rep := range reports {
		r.send(rep.src, rep.msg)
		r.resend(rep.src, rep.msg, 2*r.cfg.HelloInterval, 0, -1, "failure-report", 0)
	}
}

// declareDownLocked marks the adjacency to nbr down, failed or held for a
// drain, and collects the failure reports to send (DRTP steps 2 and 3). A
// failed link reports the primaries crossing it, as the paper's failure
// model has it; a held link reports the backups registered on it too, so
// their sources move them off a node that is leaving. A link already down,
// or to a node that is no neighbour, changes nothing. Callers must hold
// r.mu.
func (r *Router) declareDownLocked(nbr graph.NodeID, held bool) []failureReport {
	l, ok := r.g.LinkBetween(r.cfg.Node, nbr)
	if !ok || r.isDownLocked(nbr) {
		return nil
	}
	r.downNbr[nbr] = held
	r.log.Warn("link failure detected", "neighbor", int(nbr), "held", held)
	r.markDirtyLocked(l)
	r.tracer.LinkFail(int(r.cfg.Node), int(l))
	// Group the affected connections by source and notify each, sources
	// and each report's connections ascending, so a failure sends the
	// same reports in the same order on every run. The source labels the
	// switch with its own record's span context.
	on := r.transit[l]
	ids := make([]lsdb.ConnID, 0, len(on))
	for id := range on {
		if held || r.db.HasPrimary(id, l) {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, func(a, b lsdb.ConnID) int {
		return cmp.Or(cmp.Compare(on[a], on[b]), cmp.Compare(a, b))
	})
	var reports []failureReport
	for i, id := range ids {
		if i == 0 || on[id] != on[ids[i-1]] {
			reports = append(reports, failureReport{src: on[id], msg: proto.FailureReport{Link: l}})
		}
		rep := &reports[len(reports)-1]
		rep.msg.Conns = append(rep.msg.Conns, id)
	}
	return reports
}

// checkNeighbors declares links failed after HelloMiss missed hellos as
// of now. Adjacencies that go stale together are declared down, and their
// reports queued, in ascending neighbour order.
func (r *Router) checkNeighbors(now time.Time) {
	deadline := time.Duration(r.cfg.HelloMiss) * r.cfg.HelloInterval

	r.mu.Lock()
	var reports []failureReport
	for _, nbr := range r.nbrs {
		if r.isDownLocked(nbr) || now.Sub(r.lastHello[nbr]) <= deadline {
			continue
		}
		reports = append(reports, r.declareDownLocked(nbr, false)...)
	}
	r.mu.Unlock()

	r.sendFailureReports(reports)
}

// FailLink simulates an administrative link failure towards a neighbor.
// The adjacency is declared down immediately and affected sources are
// notified, exactly as hello-based detection would do; a node that is no
// neighbour changes nothing. Intended for tests, demos and the control
// plane's node deaths.
func (r *Router) FailLink(nbr graph.NodeID) { r.declareDown(nbr, false) }

// HoldLink declares the link to a draining neighbor down as FailLink
// does, but held: hellos never revive it, as the neighbor is alive, and
// its reports name the backups registered on it too. The control plane's
// drains call it.
func (r *Router) HoldLink(nbr graph.NodeID) { r.declareDown(nbr, true) }

func (r *Router) declareDown(nbr graph.NodeID, held bool) {
	r.mu.Lock()
	reports := r.declareDownLocked(nbr, held)
	r.mu.Unlock()
	r.sendFailureReports(reports)
}

// report is a reported link as a source queues it, with when the report
// arrived: the disruption clock starts there, the point the paper
// measures service disruption from.
type report struct {
	link graph.LinkID
	at   time.Time
}

// handleFailureReport queues the report for each connection it names, for
// the goroutine moving that connection (moveOff), started if none runs.
func (r *Router) handleFailureReport(m proto.FailureReport) {
	rep := report{link: m.Link, at: r.clock.Now()}
	for _, id := range m.Conns {
		r.mu.Lock()
		if c := r.conns[id]; c != nil && !r.closed {
			c.reported = append(c.reported, rep)
			if !c.switching {
				// The moves' round trips block, so a helper goroutine runs
				// them. It is counted under mu, before Close can mark the
				// router closed and wait: a report handled in place on
				// another goroutine starts no move that Close misses.
				c.switching = true
				r.wg.Add(1)
				go r.moveOff(c)
			}
		}
		r.mu.Unlock()
	}
}

// moveOff takes c's queued reports in turn: a primary crossing the
// reported link switches (runSwitch), a backup crossing it is replaced
// (replaceBackup). A report naming a link c no longer crosses — a
// duplicate, or one outrun by an earlier move — is absorbed, so c moves
// again when its new routes fail; so is any report for a dropped c. While
// c.switching is set this goroutine owns c's lifecycle record; everyone
// else reads c.info.
func (r *Router) moveOff(c *conn) {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		c.publish(r.g)
		dead, released := c.info.Dead, r.conns[c.ID] != c
		if dead || released || len(c.reported) == 0 {
			c.switching, c.reported = false, nil
			r.mu.Unlock()
			if released && !dead {
				r.life.Release(&c.Conn, false)
			}
			return
		}
		rep := c.reported[0]
		c.reported = c.reported[1:]
		r.mu.Unlock()
		switch i := slices.IndexFunc(c.Backups, func(b graph.Path) bool { return b.Contains(rep.link) }); {
		case c.Primary.Contains(rep.link):
			r.runSwitch(c, rep)
		case i >= 0:
			r.replaceBackup(c, i, rep.link)
		default:
			r.tracer.DedupHit(c.Trace, int64(c.ID), int(r.cfg.Node), "failure-report")
		}
	}
}

// runSwitch moves c onto its first backup that activates and re-protects
// it, or drops it when none does.
func (r *Router) runSwitch(c *conn, rep report) {
	if !r.life.Switch(&c.Conn, int(rep.link)) {
		r.log.Error("connection lost", "conn", int64(c.ID), "backupsTried", len(c.Backups))
		r.life.Release(&c.Conn, true)
		r.tracer.ActivationDenied(r.schemeName, c.Trace, int64(c.ID), int(rep.link), "dropped")
		c.Backups = nil
		r.mu.Lock()
		c.info.Dead = true
		r.mu.Unlock()
		return
	}
	r.log.Warn("channel switched to backup", "conn", int64(c.ID))
	r.observe(r.mDisruptionSeconds, rep.at)
	r.mu.Lock()
	c.info.Switched = true
	c.publish(r.g)
	r.mu.Unlock()
	r.life.Reprotect(&c.Conn, func(c *lifecycle.Conn) []graph.Path { return r.backupsAround(c, rep.link, r.cfg.Backups) })
}

// replaceBackup moves c's backup i off the held link l, make before
// break: a fresh one, routed around l's edge, is registered first, and the
// old one released after on the links the fresh one does not reuse. A
// link they share keeps the registration it holds, the same primary's, so
// no link sees the new registration race the old one's teardown. Without
// a fresh backup the old one is released whole.
func (r *Router) replaceBackup(c *conn, i int, l graph.LinkID) {
	old := c.Backups[i]
	c.Backups = slices.Delete(c.Backups, i, i+1)
	if fresh := r.backupsAround(&c.Conn, l, len(c.Backups)+1); len(fresh) > 0 {
		err := r.life.Channels.Register(c.ID, c.Trace, fresh[0], c.Primary)
		if err == nil {
			c.Backups = slices.Insert(c.Backups, i, fresh[0])
			r.releaseOutside(c.ID, c.Trace, proto.Backup, old, fresh[0])
			return
		}
		r.log.Warn("backup replacement refused", "conn", int64(c.ID), "err", err)
	}
	r.life.Channels.Release(c.ID, c.Trace, proto.Backup, old, false)
}
