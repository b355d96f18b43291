package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/flood"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/rng"
	"github.com/rtcl/drtp/internal/routing"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/sim"
	"github.com/rtcl/drtp/internal/topology"
)

// topologySeed fixes the network of every workload. Only the scenario
// and the failure schedule follow -seed: at 60 nodes establishments/sec
// moves ±20 % from one Waxman draw to the next, which would bury the
// 10 % bound, while request sequences on one network agree within ~2 %.
const topologySeed = 5

// schemeSpec builds one routing scheme per cell (schemes carry per-run
// state such as flood counters and scratch buffers).
type schemeSpec struct {
	name string
	// spanName labels the scheme's Route calls in the traced replay.
	spanName string
	build    func() drtp.Scheme
	opts     []drtp.ManagerOption
	// protects says the scheme sets up backups, so its cells count
	// toward p_act_bk (the NoBackup baseline does not).
	protects bool
}

var (
	specDLSR     = schemeSpec{"D-LSR", "routing.dlsr.route", func() drtp.Scheme { return routing.NewDLSR() }, nil, true}
	specPLSR     = schemeSpec{"P-LSR", "routing.plsr.route", func() drtp.Scheme { return routing.NewPLSR() }, nil, true}
	specBF       = schemeSpec{"BF", "flood.route", func() drtp.Scheme { return flood.NewDefault() }, nil, true}
	specNoBackup = schemeSpec{"NoBackup", "routing.nobackup.route", func() drtp.Scheme { return routing.NewNoBackup() },
		[]drtp.ManagerOption{drtp.WithOptionalBackup()}, false}
)

// simSize is everything that defines a simulator workload except the
// seed.
type simSize struct {
	nodes    int
	capacity int
	patterns []scenario.Pattern
	lambdas  []float64
	// duration, warmup and evalInterval are simulated minutes
	// (sim.Config); evalInterval 0 disables the failure sweeps.
	duration, warmup, evalInterval float64
	// lifeMin/lifeMax bound the connection lifetime; zero keeps the
	// paper's U[20,60] minutes.
	lifeMin, lifeMax float64
	schemes          []schemeSpec
	// failures is the number of destructive edge failures, evenly spaced
	// after warm-up, each repaired before the next.
	failures int
	// probeEvery runs the lsdb/graph/bitvec probes after every n-th
	// accepted arrival of the traced replay.
	probeEvery int
}

var paperLambdas = []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7}

func paperSweepSize(smoke bool) simSize {
	s := simSize{
		nodes: 60, capacity: 40,
		patterns: []scenario.Pattern{scenario.UT, scenario.NT},
		lambdas:  paperLambdas,
		// Table 1's 400/160/10 shrunk so one pass over the 48 cells is
		// ~4 s and a run fits three; lifetimes stay U[20,60], so the
		// 64-minute warm-up still ends in steady state.
		duration: 160, warmup: 64, evalInterval: 8,
		schemes:    []schemeSpec{specDLSR, specPLSR, specBF, specNoBackup},
		probeEvery: 200,
	}
	if smoke {
		s.nodes, s.lambdas = 24, []float64{0.4}
		s.patterns = []scenario.Pattern{scenario.UT}
		s.duration, s.warmup, s.evalInterval = 90, 62, 9
		s.probeEvery = 25
	}
	return s
}

func scale2kSize(smoke bool) simSize {
	s := simSize{
		nodes: 2000, capacity: 40,
		patterns: []scenario.Pattern{scenario.UT},
		lambdas:  []float64{0.5},
		// Lifetimes of about a minute so arrivals and departures both
		// reach steady state inside the run; the stock 20-60 minute
		// lifetimes would never depart.
		duration: 2.5, warmup: 1.5, lifeMin: 0.5, lifeMax: 1.5,
		schemes:    []schemeSpec{specDLSR, specPLSR},
		failures:   256,
		probeEvery: 20,
	}
	if smoke {
		s.nodes, s.failures, s.probeEvery = 200, 64, 10
	}
	return s
}

// simCell is one sim.Run: a scheme on one scenario.
type simCell struct {
	spec  schemeSpec
	scen  *scenario.Scenario
	label string
}

// simInputs are the generated inputs of one workload at one seed. The
// program under test only ever sees these.
type simInputs struct {
	size  simSize
	g     *graph.Graph
	fails []sim.FailureEvent
	cells []simCell
}

// setupTimes splits one set-up by layer (traced run).
type setupTimes struct {
	topology, scenario, network time.Duration
}

// generate builds topology, scenarios and the failure schedule, plus one
// network so set-up time covers drtp.NewNetwork.
func generate(size simSize, seed int64) (*simInputs, setupTimes, error) {
	var st setupTimes
	in := &simInputs{size: size}
	src := rng.New(seed)

	t0 := time.Now()
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: size.nodes, AvgDegree: 3, MinDegree: 2, Seed: topologySeed,
	})
	if err != nil {
		return nil, st, err
	}
	in.g = g
	st.topology = time.Since(t0)

	t0 = time.Now()
	for _, pat := range size.patterns {
		for _, lambda := range size.lambdas {
			label := fmt.Sprintf("%s/%.1f", pat, lambda)
			sc, err := scenario.Generate(scenario.Config{
				Nodes: size.nodes, Lambda: lambda, Duration: size.duration,
				LifetimeMin: size.lifeMin, LifetimeMax: size.lifeMax,
				Pattern: pat, Seed: src.Split("scenario/" + label).Int63(),
			})
			if err != nil {
				return nil, st, err
			}
			for _, spec := range size.schemes {
				in.cells = append(in.cells, simCell{spec: spec, scen: sc, label: label + "/" + spec.name})
			}
		}
	}
	if size.failures > 0 {
		fr := src.Split("failures")
		spacing := (size.duration - size.warmup) / float64(size.failures+1)
		for k := 0; k < size.failures; k++ {
			at := size.warmup + spacing*float64(k+1)
			in.fails = append(in.fails, sim.FailureEvent{
				Time: at, Edge: graph.EdgeID(fr.Intn(g.NumEdges())), Repair: at + spacing/2,
			})
		}
	}
	st.scenario = time.Since(t0)

	t0 = time.Now()
	if _, err := in.newNetwork(); err != nil {
		return nil, st, err
	}
	st.network = time.Since(t0)
	return in, st, nil
}

func (in *simInputs) newNetwork() (*drtp.Network, error) {
	return drtp.NewNetwork(in.g, in.size.capacity, 1)
}

func (in *simInputs) config(c simCell) sim.Config {
	return sim.Config{
		Warmup:          in.size.warmup,
		EvalInterval:    in.size.evalInterval,
		EndTime:         in.size.duration,
		ManagerOpts:     c.spec.opts,
		FailureSchedule: in.fails,
		CollectRecovery: len(in.fails) > 0,
	}
}

// cellRun is one timed sim.Run with what the checks need afterwards.
type cellRun struct {
	res  *sim.Result
	net  *drtp.Network
	host time.Duration
	// mallocs counts the heap objects sim.Run allocated.
	mallocs uint64
}

// runCell times one sim.Run on a fresh network. The collection before
// the clock starts gives every cell the same heap to begin from.
func (in *simInputs) runCell(c simCell, cfg sim.Config) (cellRun, error) {
	net, err := in.newNetwork()
	if err != nil {
		return cellRun{}, err
	}
	schm := c.spec.build()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	res, err := sim.Run(net, schm, c.scen, cfg)
	host := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil {
		return cellRun{}, fmt.Errorf("%s: %w", c.label, err)
	}
	return cellRun{res: res, net: net, host: host, mallocs: after.Mallocs - before.Mallocs}, nil
}

// liveHeapMB reads the heap in use after a collection while keep is
// still reachable.
func liveHeapMB(keep any) float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / 1e6
}

// simTotals are the simulated statistics of a whole pass.
type simTotals struct {
	arrivals, accepted   int64
	affected, recovered  int64 // sweeps, protecting schemes only
	switched, dropped    int64 // destructive failures
	backupOps, aplvBytes int64
	// underSpare counts links whose spare sat below the sizing rule at
	// the end of a cell (see checkCell).
	underSpare int
	// liveHeapMB is the largest heap a cell held when it ended; only a
	// checking pass reads it.
	liveHeapMB float64
	digest     string
}

// pActBk is the paper's headline: recovered over affected. Workloads
// with destructive failures count real switches; the others count the
// non-destructive sweeps.
func (t simTotals) pActBk() (float64, error) {
	num, den := t.recovered, t.affected
	if t.switched+t.dropped > 0 {
		num, den = t.switched, t.switched+t.dropped
	}
	if den == 0 {
		return 0, fmt.Errorf("no connection was hit by any failure: p_act_bk is undefined")
	}
	return float64(num) / float64(den), nil
}

// digestLine renders every simulated statistic of a cell; the digest of
// all lines compares two commits exactly.
func digestLine(label string, r *sim.Result, db *lsdb.DB) string {
	bits := math.Float64bits
	return fmt.Sprintf("%s %+v win=%d/%d ft=%d/%d/%d/%d/%d sweeps=%d fail=%d/%d/%d/%d/%d avg=%x/%x/%x/%x/%x bw=%d/%d\n",
		label, r.Stats, r.AcceptedInWindow, r.RequestsInWindow,
		r.Affected, r.Recovered, r.NoBackup, r.BackupHit, r.Contention, r.Sweeps,
		r.FailuresApplied, r.FailureAffected, r.Switched, r.Dropped, r.Reestablished,
		bits(r.AvgActive), bits(r.AvgLoad), bits(r.AvgSpareLoad), bits(r.AvgPrimaryHops), bits(r.AvgBackupHops),
		db.TotalPrimeBW(), db.TotalSpareBW())
}

// checkCell asserts, through exported getters only, what must hold after
// any run: the admission counters add up, spare never exceeds the
// multiplexed sizing rule (under counts the links below it), and no
// reservation outlives its connection.
func checkCell(c simCell, end float64, r *sim.Result, net *drtp.Network) (under int, err error) {
	st := r.Stats
	if st.Accepted+st.Rejected+st.RejectedNoBackup != st.Requests {
		return 0, fmt.Errorf("%s: accepted %d + rejected %d + no-backup %d != arrivals %d",
			c.label, st.Accepted, st.Rejected, st.RejectedNoBackup, st.Requests)
	}

	// live holds the connections that may still own reservations: arrived
	// by the end of the run and not yet departed. Everything else that
	// arrived has been released (or was never admitted).
	live := make(map[lsdb.ConnID]bool)
	var released []lsdb.ConnID
	for _, ev := range c.scen.Events {
		if ev.Time > end {
			break
		}
		switch ev.Kind {
		case scenario.Arrival:
			live[ev.Conn] = true
		case scenario.Departure:
			delete(live, ev.Conn)
			released = append(released, ev.Conn)
		}
	}

	db, unit := net.DB(), net.UnitBW()
	nl := net.Graph().NumLinks()
	for l := graph.LinkID(0); int(l) < nl; l++ {
		prime, spare := db.PrimeBW(l), db.SpareBW(l)
		// resizeSpareLocked: spare = max_j APLV[j] * unit, capped at what
		// fits beside the primaries. The database resizes on backup
		// operations only, so a link that was capped stays below the rule
		// after a primary leaves it, until its next backup operation;
		// those links are counted, not failed.
		switch want := min(db.APLVMax(l)*unit, db.Capacity(l)-prime); {
		case spare > want:
			return 0, fmt.Errorf("%s: link %d spare %d exceeds the multiplexed rule's %d", c.label, l, spare, want)
		case spare < want:
			under++
		}
		if db.PrimariesOn(l)*unit != prime {
			return 0, fmt.Errorf("%s: link %d holds %d primaries but primeBW %d", c.label, l, db.PrimariesOn(l), prime)
		}
		for _, id := range db.BackupsOn(l) {
			if !live[id] {
				return 0, fmt.Errorf("%s: link %d still holds a backup of released connection %d", c.label, l, id)
			}
		}
	}
	// Primaries cannot be listed per link, so probe a spread of released
	// connections link by link.
	const sample = 128
	step := max(len(released)/sample, 1)
	for i := 0; i < len(released); i += step {
		for l := graph.LinkID(0); int(l) < nl; l++ {
			if db.HasPrimary(released[i], l) {
				return 0, fmt.Errorf("%s: link %d still holds the primary of released connection %d", c.label, l, released[i])
			}
		}
	}
	return under, nil
}

// pass runs every cell once, in order. With check set it also verifies
// each cell and records the live heap.
func (in *simInputs) pass(check bool, each func(i int, run cellRun)) (simTotals, error) {
	var tot simTotals
	h := sha256.New()
	for i, c := range in.cells {
		run, err := in.runCell(c, in.config(c))
		if err != nil {
			return tot, err
		}
		r, db := run.res, run.net.DB()
		if check {
			tot.liveHeapMB = max(tot.liveHeapMB, liveHeapMB(run.net))
			under, err := checkCell(c, in.size.duration, r, run.net)
			if err != nil {
				return tot, err
			}
			tot.underSpare += under
		}
		tot.arrivals += r.Stats.Requests
		tot.accepted += r.Stats.Accepted
		if c.spec.protects {
			tot.affected += r.Affected
			tot.recovered += r.Recovered
		}
		tot.switched += r.Switched
		tot.dropped += r.Dropped
		tot.backupOps += db.BackupOps()
		tot.aplvBytes += db.APLVBytes()
		h.Write([]byte(digestLine(c.label, r, db)))
		each(i, run)
	}
	tot.digest = fmt.Sprintf("%x", h.Sum(nil)[:8])
	return tot, nil
}

// runResult is what one run of one workload reports.
type runResult struct {
	attempted, failed int64
	// digest hashes every simulated statistic; "-" on the control-plane
	// workloads, whose outcomes depend on timing.
	digest  string
	metrics map[string]metricValue
	// notes carry sample counts and file names for the human reader.
	notes []string
}

// setupRepeats is how often a run sets up; setup_s is the median.
func setupRepeats(smoke bool) int {
	if smoke {
		return 1
	}
	return 5
}

// runSimUntraced measures the end-to-end metrics of a simulator
// workload. Throughput comes from sim.Run, as drtpsim users pay for it:
// whole passes over the cells until the summed sim.Run time reaches the
// requested seconds. Latency is what a caller of Manager.Establish
// observes, which sim.Run does not expose, so one more pass replays the
// cells through the manager and times each call (no scheme wrapper, no
// probes), and must reproduce sim.Run's statistics while doing so.
func runSimUntraced(size simSize, o runOpts) (*runResult, error) {
	var in *simInputs
	var setups []float64
	for i := 0; i < setupRepeats(o.smoke); i++ {
		t0 := time.Now()
		gen, _, err := generate(size, o.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		in = gen
	}

	var first simTotals
	var hostTotal float64
	reference := make([]*sim.Result, len(in.cells))
	// hosts[i] collects cell i's sim.Run seconds, one value per pass. The
	// passes repeat identical work, so the per-cell median drops a pass
	// that a noisy neighbour slowed down.
	hosts := make([][]float64, len(in.cells))
	passes := 0
	for ; passes == 0 || hostTotal < o.seconds; passes++ {
		tot, err := in.pass(passes == 0, func(i int, run cellRun) {
			hostTotal += run.host.Seconds()
			hosts[i] = append(hosts[i], run.host.Seconds())
			reference[i] = run.res
		})
		if err != nil {
			return nil, err
		}
		if passes == 0 {
			first = tot
		} else if tot.digest != first.digest {
			return nil, fmt.Errorf("pass %d produced sim_digest %s, pass 0 produced %s: the simulator is not deterministic", passes, tot.digest, first.digest)
		}
	}
	var typical float64
	for _, h := range hosts {
		typical += median(h)
	}

	rec := newRecorder(time.Now())
	if _, err := in.replayAll(reference, rec, nil); err != nil {
		return nil, err
	}
	establish := sortedCopy(aggregate(rec.spans)["drtp.establish"].durs)

	pact, err := first.pActBk()
	if err != nil {
		return nil, err
	}
	m := newMetricSet(endToEnd)
	m.set("setup_s", median(setups))
	m.set("establish_per_s", ratio(float64(first.arrivals), typical))
	m.set("establish_p50_us", percentile(establish, 0.50)/1e3)
	m.set("establish_p90_us", percentile(establish, 0.90)/1e3)
	m.set("live_heap_mb", first.liveHeapMB)
	m.set("accepted_share", ratio(float64(first.accepted), float64(first.arrivals)))
	m.set("p_act_bk", pact)
	return &runResult{
		attempted: first.arrivals * int64(passes),
		digest:    first.digest,
		metrics:   m.complete(),
		notes: []string{
			fmt.Sprintf("%d cells x %d passes of %d arrivals, %.2f s of sim.Run in all; establish_per_s from the per-cell median over passes",
				len(in.cells), passes, first.arrivals, hostTotal),
			fmt.Sprintf("establish_p50/p90 over %d Manager.Establish calls of one replay pass, whose statistics equal sim.Run's", len(establish)),
			fmt.Sprintf("checks passed on every cell; %d link states ended below the spare sizing rule", first.underSpare),
		},
	}, nil
}
