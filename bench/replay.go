package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/flood"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/sim"
	"github.com/rtcl/drtp/internal/telemetry"
)

// The traced run replays a cell's scenario and failure schedule through
// the exported drtp.Manager surface, with a decorator around the real
// scheme, and records one span per call. drtp.Manager discovers optional
// scheme capabilities by type assertion (drtp.BackupRouter in
// restoreProtection, SetTracer in sim.Run, Stats on flood.Scheme), so a
// plain wrapper would silently switch re-protection off and measure a
// different program. The three wrapper types below forward exactly the
// capabilities the wrapped scheme has.

// tracedScheme wraps a scheme that only routes.
type tracedScheme struct {
	inner drtp.Scheme
	rec   *recorder
	span  string
}

func (t *tracedScheme) Name() string { return t.inner.Name() }

func (t *tracedScheme) Route(net *drtp.Network, req drtp.Request) (drtp.Route, error) {
	id := t.rec.begin(t.span, int64(req.ID))
	route, err := t.inner.Route(net, req)
	t.rec.end(id)
	return route, err
}

// tracedBackupScheme adds drtp.BackupRouter.
type tracedBackupScheme struct {
	tracedScheme
	backups drtp.BackupRouter
}

func (t *tracedBackupScheme) RouteBackupsFor(net *drtp.Network, req drtp.Request, primary graph.Path, existing []graph.Path) []graph.Path {
	id := t.rec.begin(t.span+"_backups", int64(req.ID))
	paths := t.backups.RouteBackupsFor(net, req, primary, existing)
	t.rec.end(id)
	return paths
}

// tracedFloodScheme adds bounded flooding's counters and tracer hook.
type tracedFloodScheme struct {
	tracedBackupScheme
	flood *flood.Scheme
}

func (t *tracedFloodScheme) Stats() flood.Stats             { return t.flood.Stats() }
func (t *tracedFloodScheme) SetTracer(tr *telemetry.Tracer) { t.flood.SetTracer(tr) }

// traceScheme decorates inner so each Route call becomes a span.
func traceScheme(inner drtp.Scheme, rec *recorder, span string) drtp.Scheme {
	base := tracedScheme{inner: inner, rec: rec, span: span}
	switch s := inner.(type) {
	case *flood.Scheme:
		return &tracedFloodScheme{tracedBackupScheme{base, s}, s}
	case drtp.BackupRouter:
		return &tracedBackupScheme{base, s}
	default:
		return &base
	}
}

// replayStats are the counts a replay must reproduce exactly.
type replayStats struct {
	requests, accepted, rejected, rejectedNoBackup int64
	sweeps                                         int
	affected, recovered                            int64
	failuresApplied                                int
	failureAffected, switched, dropped, reestab    int64
}

func statsOfRun(r *sim.Result) replayStats {
	return replayStats{
		requests: r.Stats.Requests, accepted: r.Stats.Accepted,
		rejected: r.Stats.Rejected, rejectedNoBackup: r.Stats.RejectedNoBackup,
		sweeps: r.Sweeps, affected: r.Affected, recovered: r.Recovered,
		failuresApplied: r.FailuresApplied, failureAffected: r.FailureAffected,
		switched: r.Switched, dropped: r.Dropped, reestab: r.Reestablished,
	}
}

// replay drives one cell the way sim.Run does — same timeline order, same
// evaluation epochs, same failure handling — through the exported
// Manager calls, recording a span around each. It leaves out only what
// sim.Run does for itself (load integration, hop averages). probe, when
// non-nil, runs after every probeEvery-th accepted arrival.
func replay(net *drtp.Network, schm drtp.Scheme, sc *scenario.Scenario, cfg sim.Config, rec *recorder, probeEvery int, probe func(*drtp.Connection)) (replayStats, error) {
	var st replayStats
	opts := cfg.ManagerOpts
	if cfg.CollectRecovery {
		opts = append(append([]drtp.ManagerOption(nil), opts...), drtp.WithRecoveryLatency())
	}
	mgr := drtp.NewManager(net, schm, opts...)

	nextEval := cfg.Warmup
	if cfg.EvalInterval == 0 {
		nextEval = math.Inf(1)
	}
	runEvals := func(upto float64) {
		for nextEval <= upto {
			id := rec.begin("drtp.sweep_failures", -1)
			outcomes := mgr.SweepFailures(drtp.LinkFailures)
			rec.end(id)
			for _, o := range outcomes {
				st.affected += int64(o.Affected)
				st.recovered += int64(o.Recovered)
			}
			st.sweeps++
			nextEval += cfg.EvalInterval
		}
	}

	type item struct {
		time    float64
		traffic *scenario.Event
		fail    bool
		edge    graph.EdgeID
	}
	timeline := make([]item, 0, len(sc.Events)+2*len(cfg.FailureSchedule))
	for i := range sc.Events {
		timeline = append(timeline, item{time: sc.Events[i].Time, traffic: &sc.Events[i]})
	}
	for _, f := range cfg.FailureSchedule {
		timeline = append(timeline, item{time: f.Time, fail: true, edge: f.Edge})
		if f.Repair > f.Time {
			timeline = append(timeline, item{time: f.Repair, edge: f.Edge})
		}
	}
	sort.SliceStable(timeline, func(i, j int) bool { return timeline[i].time < timeline[j].time })

	down := make(map[graph.EdgeID]int)
	for _, it := range timeline {
		if it.time > cfg.EndTime {
			break
		}
		runEvals(it.time)
		switch {
		case it.traffic == nil && it.fail:
			down[it.edge]++
			if down[it.edge] > 1 {
				continue
			}
			id := rec.begin("drtp.apply_failure", -1)
			out := mgr.ApplyEdgeFailure(it.edge)
			rec.end(id)
			st.failuresApplied++
			st.failureAffected += int64(out.Affected)
			st.switched += int64(out.Switched)
			st.dropped += int64(out.Dropped)
			st.reestab += int64(out.BackupsReestablished)
		case it.traffic == nil:
			if down[it.edge] > 0 {
				down[it.edge]--
			}
			if down[it.edge] == 0 {
				net.RestoreEdge(it.edge)
			}
		case it.traffic.Kind == scenario.Arrival:
			ev := it.traffic
			id := rec.begin("drtp.establish", int64(ev.Conn))
			conn, err := mgr.Establish(drtp.Request{ID: ev.Conn, Src: ev.Src, Dst: ev.Dst})
			rec.end(id)
			if err != nil {
				if !errors.Is(err, drtp.ErrNoRoute) && !errors.Is(err, drtp.ErrNoBackup) {
					return st, fmt.Errorf("establish %d: %w", ev.Conn, err)
				}
				continue
			}
			if probe != nil && mgr.Stats().Accepted%int64(probeEvery) == 0 {
				id := rec.begin("bench.probes", int64(ev.Conn))
				probe(conn)
				rec.end(id)
			}
		default:
			if _, active := mgr.Get(it.traffic.Conn); active {
				id := rec.begin("drtp.release", int64(it.traffic.Conn))
				err := mgr.Release(it.traffic.Conn)
				rec.end(id)
				if err != nil {
					return st, fmt.Errorf("release %d: %w", it.traffic.Conn, err)
				}
			}
		}
	}
	runEvals(cfg.EndTime)

	ms := mgr.Stats()
	st.requests, st.accepted = ms.Requests, ms.Accepted
	st.rejected, st.rejectedNoBackup = ms.Rejected, ms.RejectedNoBackup

	// The replay owns the manager, so it can check reservation ownership
	// exactly: what the links hold is what the active connections own.
	var primaryHops, backupHops int
	for _, c := range mgr.Connections() {
		primaryHops += c.Primary.Hops()
		for _, b := range c.Backups {
			backupHops += b.Hops()
		}
	}
	db := net.DB()
	var primaries, backups int
	for l := graph.LinkID(0); int(l) < db.NumLinks(); l++ {
		primaries += db.PrimariesOn(l)
		backups += db.NumBackupsOn(l)
	}
	if primaries != primaryHops || backups != backupHops {
		return st, fmt.Errorf("links hold %d primary and %d backup reservations, active connections own %d and %d",
			primaries, backups, primaryHops, backupHops)
	}
	return st, nil
}

// probeConn is the connection ID the write probes reserve under; no
// scenario reaches it.
const probeConn = lsdb.ConnID(math.MaxInt64)

// prober times single calls into graph, lsdb and bitvec-backed state on
// the live database of a replay. Reads use buffers of its own; writes
// come in pairs that leave the database as they found it.
type prober struct {
	scratch graph.Scratch
	snap    lsdb.Snapshot
	counts  []float64
	wire    []byte
	// ns holds the samples per probe, nanoseconds per call.
	ns map[string][]float64
	// wireBytes holds the size of each appended Conflict Vector.
	wireBytes []float64
}

func newProber() *prober { return &prober{ns: make(map[string][]float64)} }

func (p *prober) timed(name string, fn func() bool) {
	t0 := time.Now()
	ok := fn()
	d := time.Since(t0)
	if ok {
		p.ns[name] = append(p.ns[name], float64(d))
	}
}

func unitCost(graph.LinkID) float64 { return 1 }

// p50 is the median of a probe's samples in the given unit.
func (p *prober) p50(name string, perUnit float64) float64 {
	return percentile(sortedCopy(p.ns[name]), 0.5) / perUnit
}

// run probes the state right after conn was established, so its primary
// and backup are registered and every link of them is loaded.
func (p *prober) run(net *drtp.Network, conn *drtp.Connection) {
	db, g := net.DB(), net.Graph()
	primary := conn.Primary.Links()

	p.timed("graph.dijkstra", func() bool {
		p.scratch.ShortestPath(g, conn.Src, conn.Dst, unitCost)
		return true
	})
	p.timed("lsdb.snapshot", func() bool {
		db.SnapshotInto(&p.snap)
		return true
	})
	p.timed("lsdb.conflict_counts", func() bool {
		p.counts = db.ConflictCountsInto(primary, p.counts)
		return true
	})
	// A saturated link refuses the probe reservation; the call rolls
	// itself back and the sample is dropped.
	p.timed("lsdb.reserve_release", func() bool {
		if db.ReservePrimaryPath(probeConn, primary) != nil {
			return false
		}
		mustNil(db.ReleasePrimaryPath(probeConn, primary))
		return true
	})
	if !conn.HasBackup() {
		return
	}
	backup := conn.Backup().Links()
	// Register and release both end in resizeSpareLocked, which leaves
	// spare unchanged only if it already equals the sizing rule; a link
	// capped earlier may sit below it, and probing it would grow its
	// spare and change later admissions.
	if spareFollowsRule(db, backup) {
		p.timed("lsdb.register_release", func() bool {
			if db.RegisterBackupPath(probeConn, backup, primary) != nil {
				return false
			}
			mustNil(db.ReleaseBackupPath(probeConn, backup))
			return true
		})
	}
	for _, l := range backup {
		p.timed("bitvec.append_cv", func() bool {
			p.wire = db.AppendCV(l, p.wire[:0])
			return true
		})
		p.wireBytes = append(p.wireBytes, float64(len(p.wire)))
	}
}

func spareFollowsRule(db *lsdb.DB, links []graph.LinkID) bool {
	for _, l := range links {
		if db.SpareBW(l) != min(db.APLVMax(l)*db.UnitBW(), db.Capacity(l)-db.PrimeBW(l)) {
			return false
		}
	}
	return true
}

func mustNil(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: probe left the database changed: %v", err))
	}
}

// replayAll replays every cell on a fresh network, each under a
// bench.cell span, and fails unless each reproduces the statistics
// sim.Run gave for it. With probes set it is the traced pass: the scheme
// is wrapped so its Route calls become spans, and the probes run at the
// checkpoints. It returns bounded flooding's counters, read through the
// wrapper when there is one.
func (in *simInputs) replayAll(reference []*sim.Result, rec *recorder, probes *prober) (flood.Stats, error) {
	var floodStats flood.Stats
	for i, c := range in.cells {
		net, err := in.newNetwork()
		if err != nil {
			return floodStats, err
		}
		schm := c.spec.build()
		var probe func(*drtp.Connection)
		if probes != nil {
			schm = traceScheme(schm, rec, c.spec.spanName)
			probe = func(conn *drtp.Connection) { probes.run(net, conn) }
		}
		cell := rec.begin("bench.cell", -1)
		got, err := replay(net, schm, c.scen, in.config(c), rec, in.size.probeEvery, probe)
		rec.end(cell)
		if err != nil {
			return floodStats, fmt.Errorf("%s: replay: %w", c.label, err)
		}
		if want := statsOfRun(reference[i]); got != want {
			return floodStats, fmt.Errorf("%s: the replay measured a different program:\n replay  %+v\n sim.Run %+v", c.label, got, want)
		}
		if fs, ok := schm.(interface{ Stats() flood.Stats }); ok {
			s := fs.Stats()
			floodStats.Requests += s.Requests
			floodStats.CDPForwards += s.CDPForwards
		}
	}
	return floodStats, nil
}

// runSimTraced produces the per-layer metrics of a simulator workload.
// Every cell runs twice: once through sim.Run, untimed by spans, as the
// reference for shares and for the statistics the replay must match;
// once through the traced replay.
func runSimTraced(size simSize, o runOpts) (*runResult, error) {
	in, setup, err := generate(size, o.seed)
	if err != nil {
		return nil, err
	}
	m := newMetricSet(perLayer)
	m.set("topology.waxman_ms", setup.topology.Seconds()*1e3)
	m.set("scenario.generate_ms", setup.scenario.Seconds()*1e3)
	m.set("drtp.new_network_ms", setup.network.Seconds()*1e3)

	// Reference pass, tracing off.
	results := make([]*sim.Result, len(in.cells))
	var host, firstCellHost float64
	var mallocs uint64
	tot, err := in.pass(true, func(i int, run cellRun) {
		results[i] = run.res
		if i == 0 {
			firstCellHost = run.host.Seconds()
		}
		host += run.host.Seconds()
		mallocs += run.mallocs
	})
	if err != nil {
		return nil, err
	}

	// Traced pass.
	rec := newRecorder(time.Now())
	probes := newProber()
	floodStats, err := in.replayAll(results, rec, probes)
	if err != nil {
		return nil, err
	}

	agg := aggregate(rec.spans)
	// inDRTP is the time inside Manager calls, children included.
	var inDRTP float64
	var routeNames []string
	for name, st := range agg {
		if strings.HasPrefix(name, "drtp.") {
			inDRTP += totalSeconds(st)
		}
		if strings.HasPrefix(name, "routing.") {
			routeNames = append(routeNames, name)
		}
	}
	// replayed is the traced pass's program time: the cells minus the
	// probes that ran inside them.
	replayed := selfSeconds(agg, "bench.cell") + inDRTP
	arrivals := float64(tot.arrivals)

	m.set("sim.self_share", (host-inDRTP)/host)
	m.set("sim.allocs_per_arrival", float64(mallocs)/arrivals)
	m.set("drtp.establish_us_p50", pct(agg, "drtp.establish", 0.50, 1e3))
	m.set("drtp.establish_us_p99", pct(agg, "drtp.establish", 0.99, 1e3))
	m.set("drtp.establish_self_share", selfSeconds(agg, "drtp.establish")/host)
	m.set("drtp.release_us_p50", pct(agg, "drtp.release", 0.50, 1e3))
	m.set("drtp.sweep_failures_ms_p50", pct(agg, "drtp.sweep_failures", 0.50, 1e6))
	m.set("drtp.sweep_share", selfSeconds(agg, "drtp.sweep_failures")/host)
	m.set("drtp.apply_failure_us_p50", pct(agg, "drtp.apply_failure", 0.50, 1e3))
	m.set("drtp.apply_share", selfSeconds(agg, "drtp.apply_failure")/host)
	m.set("routing.dlsr.route_us_p50", pct(agg, "routing.dlsr.route", 0.50, 1e3))
	m.set("routing.dlsr.route_us_p99", pct(agg, "routing.dlsr.route", 0.99, 1e3))
	m.set("routing.plsr.route_us_p50", pct(agg, "routing.plsr.route", 0.50, 1e3))
	m.set("routing.route_share", selfSeconds(agg, routeNames...)/host)
	m.set("flood.route_us_p50", pct(agg, "flood.route", 0.50, 1e3))
	m.set("flood.cdps_per_request", ratio(float64(floodStats.CDPForwards), float64(floodStats.Requests)))
	m.set("flood.route_share", selfSeconds(agg, "flood.route", "flood.route_backups")/host)
	m.set("graph.dijkstra_us_p50", probes.p50("graph.dijkstra", 1e3))
	// Each establishment runs Dijkstra twice (primary, backup); the probe
	// mean times the arrivals estimates what that costs the whole run.
	m.set("graph.dijkstra_share_est", 2*meanOf(probes.ns["graph.dijkstra"])/1e9*arrivals/host)
	m.set("lsdb.snapshot_us_p50", probes.p50("lsdb.snapshot", 1e3))
	m.set("lsdb.conflict_counts_us_p50", probes.p50("lsdb.conflict_counts", 1e3))
	m.set("lsdb.reserve_release_us_p50", probes.p50("lsdb.reserve_release", 1e3))
	m.set("lsdb.register_release_us_p50", probes.p50("lsdb.register_release", 1e3))
	m.set("lsdb.backup_ops", float64(tot.backupOps))
	m.set("lsdb.aplv_bytes_per_conn", ratio(float64(tot.aplvBytes), float64(tot.accepted)))
	m.set("bitvec.append_cv_us_p50", probes.p50("bitvec.append_cv", 1e3))
	m.set("bitvec.cv_wire_bytes_p50", percentile(sortedCopy(probes.wireBytes), 0.5))
	m.set("bench.trace_overhead_share", 1-host/replayed)

	notes := []string{
		fmt.Sprintf("%d cells, %d arrivals; sim.Run %.2f s untraced, replay %.2f s traced; replay statistics equal sim.Run's on every cell", len(in.cells), tot.arrivals, host, replayed),
		fmt.Sprintf("spans: %d (establish %d, release %d, sweep %d, apply %d)", len(rec.spans),
			count(agg, "drtp.establish"), count(agg, "drtp.release"), count(agg, "drtp.sweep_failures"), count(agg, "drtp.apply_failure")),
		fmt.Sprintf("probe samples: dijkstra %d, snapshot %d, conflict_counts %d, reserve_release %d, register_release %d, append_cv %d",
			len(probes.ns["graph.dijkstra"]), len(probes.ns["lsdb.snapshot"]), len(probes.ns["lsdb.conflict_counts"]),
			len(probes.ns["lsdb.reserve_release"]), len(probes.ns["lsdb.register_release"]), len(probes.ns["bitvec.append_cv"])),
	}
	if size.evalInterval > 0 {
		// The telemetry budget is measured where events are densest: the
		// paper-scale cells, whose sweeps emit one event per affected
		// connection.
		eventNS, slowdown, err := telemetryProbes(in, firstCellHost)
		if err != nil {
			return nil, err
		}
		m.set("telemetry.event_ns", eventNS)
		m.set("telemetry.traced_slowdown", slowdown)
	}
	path, err := writeSpans(o.outDir, o.workload, rec)
	if err != nil {
		return nil, err
	}
	notes = append(notes, "span file: "+path)
	return &runResult{attempted: tot.arrivals, digest: tot.digest, metrics: m.complete(), notes: notes}, nil
}

// totalSeconds sums the spans' whole durations, children included.
func totalSeconds(st *spanStats) float64 {
	var ns float64
	for _, d := range st.durs {
		ns += d
	}
	return ns / 1e9
}

func count(agg map[string]*spanStats, name string) int {
	if st := agg[name]; st != nil {
		return len(st.durs)
	}
	return 0
}

// telemetryProbes measures what watching costs: one event into a ring
// sink, and the first cell re-run with every protocol event buffered,
// against its untraced time.
func telemetryProbes(in *simInputs, untracedSeconds float64) (eventNS, slowdown float64, err error) {
	const events = 200000
	tr := telemetry.NewTracer(telemetry.NewRing(1 << 12))
	t0 := time.Now()
	for i := int64(0); i < events; i++ {
		tr.ConnEstablish("D-LSR", uint64(i)+1, i, 4)
	}
	eventNS = float64(time.Since(t0)) / events

	c := in.cells[0]
	cfg := in.config(c)
	cfg.Telemetry = telemetry.NewTracer(telemetry.NewBuffer())
	traced, err := in.runCell(c, cfg)
	if err != nil {
		return 0, 0, err
	}
	return eventNS, traced.host.Seconds() / untracedSeconds, nil
}
