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
		if r.cfg.NbrRecovery || !r.downNbr[n] {
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
// failed link stays failed); with NbrRecovery it revives the adjacency.
// A hello from any other node changes nothing.
func (r *Router) handleHello(from graph.NodeID) {
	l, ok := r.g.LinkBetween(r.cfg.Node, from)
	if !ok {
		return
	}
	r.mu.Lock()
	recovered := false
	if r.downNbr[from] {
		if !r.cfg.NbrRecovery {
			r.mu.Unlock()
			return
		}
		delete(r.downNbr, from)
		r.markDirtyLocked(l)
		recovered = true
	}
	r.lastHello[from] = time.Now()
	r.mu.Unlock()
	if recovered {
		r.log.Info("neighbor recovered", "neighbor", int(from))
	}
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
		r.resend(rep.src, rep.msg, 2*r.cfg.HelloInterval, 0, -1, "failure-report")
	}
}

// declareDownLocked marks the adjacency to nbr failed and collects the
// failure reports to send (DRTP steps 2 and 3); a node that is no
// neighbour changes nothing. Callers must hold r.mu.
func (r *Router) declareDownLocked(nbr graph.NodeID) []failureReport {
	l, ok := r.g.LinkBetween(r.cfg.Node, nbr)
	if !ok || r.downNbr[nbr] {
		return nil
	}
	r.downNbr[nbr] = true
	r.log.Warn("link failure detected", "neighbor", int(nbr))
	r.markDirtyLocked(l)
	r.tracer.LinkFail(int(r.cfg.Node), int(l))
	// Group the affected primaries by source and notify each, sources
	// and each report's connections ascending, so a failure sends the
	// same reports in the same order on every run. The source labels the
	// switch with its own record's span context.
	prim := r.transitPrim[l]
	ids := make([]lsdb.ConnID, 0, len(prim))
	for id := range prim {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b lsdb.ConnID) int {
		return cmp.Or(cmp.Compare(prim[a], prim[b]), cmp.Compare(a, b))
	})
	var reports []failureReport
	for i, id := range ids {
		if i == 0 || prim[id] != prim[ids[i-1]] {
			reports = append(reports, failureReport{src: prim[id], msg: proto.FailureReport{Link: l}})
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
		if r.downNbr[nbr] || now.Sub(r.lastHello[nbr]) <= deadline {
			continue
		}
		reports = append(reports, r.declareDownLocked(nbr)...)
	}
	r.mu.Unlock()

	r.sendFailureReports(reports)
}

// FailLink simulates an administrative link failure towards a neighbor.
// The adjacency is declared down immediately and affected sources are
// notified, exactly as hello-based detection would do; a node that is no
// neighbour changes nothing. Intended for tests, demos and the control
// plane's node deaths.
func (r *Router) FailLink(nbr graph.NodeID) {
	r.mu.Lock()
	reports := r.declareDownLocked(nbr)
	r.mu.Unlock()
	r.sendFailureReports(reports)
}

// handleFailureReport starts channel switching for each reported
// connection whose primary crosses the failed link. A report naming a link
// the primary no longer crosses — a duplicate, or one outrun by an earlier
// switch — is absorbed, so a connection switches again when its new
// primary fails.
func (r *Router) handleFailureReport(m proto.FailureReport) {
	// The disruption clock starts when the failure report reaches the
	// source — the point the paper measures service disruption from.
	start := time.Now()
	for _, id := range m.Conns {
		r.mu.Lock()
		c := r.conns[id]
		switch {
		case c == nil || r.closed:
			r.mu.Unlock()
		case c.switching || c.info.Dead || !c.Primary.Contains(m.Link):
			r.mu.Unlock()
			r.tracer.DedupHit(c.Trace, int64(id), int(r.cfg.Node), "failure-report")
		default:
			// The switch's round trips block, so a helper goroutine runs
			// it. It is counted under mu, before Close can mark the router
			// closed and wait: a report handled in place on another
			// goroutine starts no switch that Close misses.
			c.switching = true
			r.wg.Add(1)
			r.mu.Unlock()
			go r.runSwitch(c, int(m.Link), start)
		}
	}
}

// runSwitch moves c onto its first backup that activates and re-protects
// it, or drops it when none does. While c.switching is set this goroutine
// owns c's lifecycle record; everyone else reads c.info. start is when the
// failure report arrived, closing the disruption-time span.
func (r *Router) runSwitch(c *conn, failedLink int, start time.Time) {
	defer r.wg.Done()
	if !r.life.Switch(&c.Conn, failedLink) {
		r.log.Error("connection lost", "conn", int64(c.ID), "backupsTried", len(c.Backups))
		r.life.Release(&c.Conn, true)
		r.tracer.ActivationDenied(r.schemeName, c.Trace, int64(c.ID), failedLink, "dropped")
		c.Backups = nil
		r.mu.Lock()
		c.switching, c.info.Dead = false, true
		c.publish(r.g)
		r.mu.Unlock()
		return
	}
	r.log.Warn("channel switched to backup", "conn", int64(c.ID))
	r.mDisruptionSeconds.ObserveSince(start)
	r.mu.Lock()
	c.info.Switched = true
	c.publish(r.g)
	r.mu.Unlock()

	r.life.Reprotect(&c.Conn, func(c *lifecycle.Conn) []graph.Path { return r.topUp(c, graph.LinkID(failedLink)) })
	r.mu.Lock()
	c.switching = false
	c.publish(r.g)
	released := r.conns[c.ID] != c
	r.mu.Unlock()
	if released {
		r.life.Release(&c.Conn, false)
	}
}
