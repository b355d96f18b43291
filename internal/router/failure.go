package router

import (
	"time"

	"github.com/rtcl/drtp/internal/graph"
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
func (r *Router) handleHello(from graph.NodeID) {
	r.mu.Lock()
	recovered := false
	if r.downNbr[from] {
		if !r.cfg.NbrRecovery {
			r.mu.Unlock()
			return
		}
		delete(r.downNbr, from)
		if l, ok := r.g.LinkBetween(r.cfg.Node, from); ok {
			r.markDirtyLocked(l)
		}
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

// frRetry is one failure report awaiting retransmission: the report is
// the protocol's recovery trigger, so a lost one would strand affected
// connections on a failed primary. It is resent on hello ticks with
// exponentially growing spacing until the attempt budget runs out; the
// source's switch guards absorb duplicates.
type frRetry struct {
	src      graph.NodeID
	msg      proto.FailureReport
	attempts int
	nextAt   time.Time
	interval time.Duration
}

// sendFailureReports transmits reports and, when retries are enabled,
// queues them for retransmission.
func (r *Router) sendFailureReports(reports []failureReport) {
	for _, rep := range reports {
		r.send(rep.src, rep.msg)
	}
	if r.cfg.RetryLimit < 2 || len(reports) == 0 {
		return
	}
	interval := 2 * r.cfg.HelloInterval
	r.mu.Lock()
	for _, rep := range reports {
		r.frPending = append(r.frPending, frRetry{
			src:      rep.src,
			msg:      rep.msg,
			attempts: r.cfg.RetryLimit - 1,
			nextAt:   time.Now().Add(interval),
			interval: interval,
		})
	}
	r.mu.Unlock()
}

// resendFailureReports retransmits due pending reports; called from the
// router loop on every hello tick.
func (r *Router) resendFailureReports() {
	now := time.Now()
	r.mu.Lock()
	var due []failureReport
	kept := r.frPending[:0]
	for _, f := range r.frPending {
		if now.Before(f.nextAt) {
			kept = append(kept, f)
			continue
		}
		due = append(due, failureReport{src: f.src, msg: f.msg})
		f.attempts--
		if f.attempts > 0 {
			f.interval *= 2
			f.nextAt = now.Add(f.interval)
			kept = append(kept, f)
		}
	}
	r.frPending = kept
	r.mu.Unlock()
	for _, rep := range due {
		r.tracer.Retry(r.schemeName, 0, -1, "failure-report")
		r.send(rep.src, rep.msg)
	}
}

// declareDownLocked marks the adjacency to nbr failed and collects the
// failure reports to send (DRTP steps 2 and 3). Callers must hold r.mu.
func (r *Router) declareDownLocked(nbr graph.NodeID) []failureReport {
	if r.downNbr[nbr] {
		return nil
	}
	r.downNbr[nbr] = true
	r.log.Warn("link failure detected", "neighbor", int(nbr))
	l, ok := r.g.LinkBetween(r.cfg.Node, nbr)
	if !ok {
		return nil
	}
	r.markDirtyLocked(l)
	r.tracer.LinkFail(int(r.cfg.Node), int(l))
	// Group the affected primaries by source and notify each, carrying
	// each connection's span context alongside its ID.
	type hit struct {
		ids    []lsdb.ConnID
		traces []uint64
	}
	bySrc := make(map[graph.NodeID]*hit)
	for id, rec := range r.transitPrim[l] {
		h := bySrc[rec.src]
		if h == nil {
			h = &hit{}
			bySrc[rec.src] = h
		}
		h.ids = append(h.ids, id)
		h.traces = append(h.traces, rec.trace)
	}
	reports := make([]failureReport, 0, len(bySrc))
	for src, h := range bySrc {
		reports = append(reports, failureReport{
			src: src,
			msg: proto.FailureReport{Link: l, Conns: h.ids, Traces: h.traces},
		})
	}
	return reports
}

// checkNeighbors declares links failed after HelloMiss missed hellos.
func (r *Router) checkNeighbors() {
	deadline := time.Duration(r.cfg.HelloMiss) * r.cfg.HelloInterval
	now := time.Now()

	r.mu.Lock()
	var reports []failureReport
	for nbr, last := range r.lastHello {
		if r.downNbr[nbr] || now.Sub(last) <= deadline {
			continue
		}
		reports = append(reports, r.declareDownLocked(nbr)...)
	}
	r.mu.Unlock()

	r.sendFailureReports(reports)
	r.resendFailureReports()
}

// FailLink simulates an administrative link failure towards a neighbor.
// The adjacency is declared down immediately and affected sources are
// notified, exactly as hello-based detection would do. Intended for tests
// and demos.
func (r *Router) FailLink(nbr graph.NodeID) {
	r.mu.Lock()
	reports := r.declareDownLocked(nbr)
	r.mu.Unlock()
	r.sendFailureReports(reports)
}

// handleFailureReport switches affected connections to their backups.
func (r *Router) handleFailureReport(m proto.FailureReport) {
	for i, id := range m.Conns {
		var trace uint64
		if i < len(m.Traces) {
			trace = m.Traces[i]
		}
		r.switchToBackup(id, int(m.Link), trace)
	}
}

// switchToBackup initiates channel switching for one connection: its
// backup routes are tried in preference order, each activated hop-by-hop
// (spare reservations converted to primary bandwidth). failedLink labels
// the telemetry events with the reported failure.
func (r *Router) switchToBackup(id lsdb.ConnID, failedLink int, trace uint64) {
	// The disruption clock starts when the failure report reaches the
	// source — the point the paper measures service disruption from.
	start := time.Now()
	r.mu.Lock()
	c := r.conns[id]
	if c == nil {
		r.mu.Unlock()
		return
	}
	if c.info.Switched || c.info.Dead || c.switching {
		// A duplicate or retransmitted failure report for a connection
		// already being (or done being) recovered.
		tr := c.trace
		r.mu.Unlock()
		r.tracer.DedupHit(tr, int64(id), int(r.cfg.Node), "failure-report")
		return
	}
	c.switching = true
	oldPrimary := c.primaryPath
	backups := make([]graph.Path, len(c.backupPaths))
	copy(backups, c.backupPaths)
	if trace == 0 {
		trace = c.trace // locally-originated reports may omit the context
	}
	r.mu.Unlock()

	// The activation round trips complete asynchronously in the router
	// loop; a helper goroutine walks the backup list.
	r.wg.Add(1)
	go r.runSwitch(id, failedLink, trace, oldPrimary, backups, start)
}

// runSwitch tries each backup in order, one activation round trip each;
// the first to succeed becomes the new primary, surviving backups stay
// registered, and the old primary's remaining reservations are
// reconfigured away. start is when the failure report arrived, closing
// the disruption-time span.
func (r *Router) runSwitch(id lsdb.ConnID, failedLink int, trace uint64, oldPrimary graph.Path, backups []graph.Path, start time.Time) {
	defer r.wg.Done()
	for i, backup := range backups {
		res, err := r.roundTrip(signal{
			sigID: sigID{kind: sigActivate, conn: id},
			route: backup.Nodes(r.g), trace: trace,
		})
		if err != nil || !res.ok {
			// Release the failed attempt's registrations and any hops
			// already converted to primary bandwidth. Recovery runs in a
			// possibly-degraded network, so the sweeps are retransmitted.
			r.teardownChannel(id, proto.Backup, backup, 0, -1, trace, true)
			r.teardownChannel(id, proto.Primary, backup, 0, -1, trace, true)
			continue
		}
		r.mu.Lock()
		if c := r.conns[id]; c != nil {
			c.switching = false
			c.info.Switched = true
			c.setRoutes(r.g, backup, append(backups[:i:i], backups[i+1:]...))
		}
		r.mu.Unlock()
		r.log.Warn("channel switched to backup", "conn", int64(id), "attempt", i+1)
		r.mDisruptionSeconds.ObserveSince(start)
		r.tracer.BackupActivate(r.schemeName, trace, int64(id), failedLink, "switch")
		r.releaseOldPrimary(id, oldPrimary, backup, trace)
		return
	}

	r.mu.Lock()
	if c := r.conns[id]; c != nil {
		c.switching = false
		c.info.Dead = true
		c.setRoutes(r.g, c.primaryPath, nil)
	}
	r.mu.Unlock()
	r.log.Error("connection lost", "conn", int64(id), "backupsTried", len(backups))
	r.tracer.ActivationDenied(r.schemeName, trace, int64(id), failedLink, "dropped")
	r.releaseOldPrimary(id, oldPrimary, graph.Path{}, trace)
}

// releaseOldPrimary is the resource reconfiguration after a failure:
// release what the failed primary still holds on surviving links. Links
// the new primary reuses keep their reservation (the activation left it
// in place), so the sweep is sent once per maximal run of links outside
// reused, each starting at the run's first router.
func (r *Router) releaseOldPrimary(id lsdb.ConnID, old, reused graph.Path, trace uint64) {
	links := old.Links()
	for from := 0; from < len(links); from++ {
		if reused.Contains(links[from]) {
			continue
		}
		upTo := from + 1
		for upTo < len(links) && !reused.Contains(links[upTo]) {
			upTo++
		}
		r.teardownChannel(id, proto.Primary, old, from, upTo, trace, true)
		from = upTo
	}
}
