package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"github.com/rtcl/drtp/internal/controlplane"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/rng"
	"github.com/rtcl/drtp/internal/router"
	"github.com/rtcl/drtp/internal/topology"
	"github.com/rtcl/drtp/internal/transport"
)

// The control-plane workloads drive the operator-facing path: a client
// asks its node's agent for a connection, the coordinator queries the
// route finder and commands hop-by-hop set-up through the routers, and
// the reply comes back; then the client releases. The loop is closed:
// two clients, each sending its next request only after the previous
// release returned.

const (
	cpNodes   = 12
	cpClients = 2
	// cpHeld is how many connections the recovery drill keeps open.
	cpHeld = 8
	// cpWarmCycles is how many cycles each client runs as part of
	// set-up. They dial every lazily opened TCP connection and fill every
	// lazily built table, so the measured phase starts warm; and because
	// their number is fixed, the heap read after them does not depend on
	// how fast the machine is (the deployment retains state per completed
	// cycle, so a heap read after the timed phase would grow with speed).
	cpWarmCycles = 100
	// syncTimeout bounds every wait on the deployment.
	syncTimeout = 10 * time.Second
)

// newTransport builds the transport under test. The TCP mesh covers every
// node plus the two service addresses on loopback.
func newTransport(tcp bool, g *graph.Graph) (controlplane.Attacher, io.Closer) {
	if !tcp {
		m := transport.NewMem()
		return m, m
	}
	addrs := make(map[graph.NodeID]string, g.NumNodes()+2)
	for n := 0; n <= int(controlplane.CoordinatorID(g)); n++ {
		addrs[graph.NodeID(n)] = "127.0.0.1:0"
	}
	m := transport.NewTCPMesh(addrs)
	return m, m
}

// cpDeployment is one running control plane and its transport.
type cpDeployment struct {
	d     *controlplane.Deployment
	trans io.Closer
}

func (c *cpDeployment) close() {
	c.d.Close()
	_ = c.trans.Close()
}

// deployCP starts the control plane and waits until it is synced. The
// timers are BenchmarkEstablishThroughput's: liveness detection is kept
// off the hot path.
func deployCP(tcp bool, g *graph.Graph) (*cpDeployment, error) {
	cfg := controlplane.DeployConfig{
		Graph:             g,
		Capacity:          1 << 20,
		UnitBW:            1,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatMiss:     100,
		RPCTimeout:        5 * time.Second,
		RetryLimit:        3,
	}
	cfg.Router.HelloInterval = time.Second
	cfg.Router.HelloMiss = 100
	cfg.Router.LSInterval = 50 * time.Millisecond
	at, trans := newTransport(tcp, g)
	d, err := controlplane.Deploy(cfg, at)
	if err != nil {
		_ = trans.Close()
		return nil, err
	}
	dep := &cpDeployment{d: d, trans: trans}
	if err := d.WaitSynced(syncTimeout); err != nil {
		dep.close()
		return nil, err
	}
	return dep, nil
}

func cpTopology() (*graph.Graph, time.Duration, error) {
	t0 := time.Now()
	g, err := topology.Waxman(topology.WaxmanConfig{Nodes: cpNodes, AvgDegree: 3, MinDegree: 2, Seed: topologySeed})
	return g, time.Since(t0), err
}

// cpClient is one closed-loop client on one source node.
type cpClient struct {
	agent *controlplane.Agent
	// dsts is the client's destination cycle, a seeded permutation of
	// the other nodes.
	dsts []graph.NodeID
	// firstID and the stride keep the clients' connection IDs apart.
	firstID lsdb.ConnID

	cycles, failed int64
	requestNS      []float64
	rec            *recorder // nil with tracing off
	err            error
}

// loop runs request/release cycles until the deadline or the cycle
// limit, whichever comes first.
func (c *cpClient) loop(deadline time.Time, limit int64) {
	id := c.firstID
	for i := 0; c.cycles < limit && time.Now().Before(deadline); i++ {
		dst := c.dsts[i%len(c.dsts)]
		id += cpClients
		c.cycles++

		var span int32
		if c.rec != nil {
			span = c.rec.begin("controlplane.request", int64(id))
		}
		t0 := time.Now()
		reply, err := c.agent.Request(id, dst)
		c.requestNS = append(c.requestNS, float64(time.Since(t0)))
		if c.rec != nil {
			c.rec.end(span)
		}
		if err != nil || !reply.OK {
			c.failed++
			c.err = fmt.Errorf("request %d -> node %d: err=%v reason=%q", id, dst, err, reply.Reason)
			continue
		}

		if c.rec != nil {
			span = c.rec.begin("controlplane.release", int64(id))
		}
		rel, err := c.agent.ReleaseConn(id)
		if c.rec != nil {
			c.rec.end(span)
		}
		if err != nil || !rel.OK {
			c.failed++
			c.err = fmt.Errorf("release %d: err=%v reason=%q", id, err, rel.Reason)
		}
	}
}

// cpPhase is the outcome of one measured phase.
type cpPhase struct {
	cycles, failed int64
	seconds        float64
	requestNS      []float64
	recs           []*recorder
	err            error
}

func (p cpPhase) perSecond() float64 { return ratio(float64(p.cycles), p.seconds) }

// The phases of one deployment draw connection IDs from disjoint ranges.
const (
	warmIDs lsdb.ConnID = iota << 32
	plainIDs
	tracedIDs
	drillIDs
)

// measureCP runs the clients for the given time, or until each has done
// limit cycles.
func measureCP(dep *cpDeployment, g *graph.Graph, seed int64, seconds float64, limit int64, idBase lsdb.ConnID, traced bool) cpPhase {
	src := rng.New(seed)
	clients := make([]*cpClient, cpClients)
	base := time.Now()
	for i := range clients {
		// Sources are fixed, one per half of the node range; the seed
		// orders each client's destinations.
		node := graph.NodeID(i * g.NumNodes() / cpClients)
		c := &cpClient{agent: dep.d.Node(node).Agent, firstID: idBase + lsdb.ConnID(i)}
		for _, n := range src.Split(fmt.Sprintf("client/%d", i)).Perm(g.NumNodes()) {
			if graph.NodeID(n) != node {
				c.dsts = append(c.dsts, graph.NodeID(n))
			}
		}
		if traced {
			c.rec = newRecorder(base)
		}
		clients[i] = c
	}

	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(deadline, limit)
		}()
	}
	wg.Wait()

	p := cpPhase{seconds: time.Since(start).Seconds()}
	for _, c := range clients {
		p.cycles += c.cycles
		p.failed += c.failed
		p.requestNS = append(p.requestNS, c.requestNS...)
		if c.rec != nil {
			p.recs = append(p.recs, c.rec)
		}
		if c.err != nil {
			p.err = c.err
		}
	}
	sort.Float64s(p.requestNS)
	return p
}

// recoveryDrill measures P_act-bk on the running control plane: it holds
// a few connections open, fails the first link of one primary at both
// ends, and counts how many connections crossing that link were switched
// to their backups. It leaves the link failed, so it runs last.
func recoveryDrill(dep *cpDeployment, g *graph.Graph) (float64, error) {
	src := dep.d.Node(0)
	type held struct {
		id      lsdb.ConnID
		primary []graph.NodeID
	}
	var conns []held
	for i := 0; i < cpHeld; i++ {
		id := drillIDs + lsdb.ConnID(i)
		dst := graph.NodeID(1 + i%(g.NumNodes()-1))
		reply, err := src.Agent.Request(id, dst)
		if err != nil || !reply.OK {
			return 0, fmt.Errorf("drill request %d -> node %d: err=%v reason=%q", id, dst, err, reply.Reason)
		}
		conns = append(conns, held{id, reply.Primary})
	}
	u, v := conns[0].primary[0], conns[0].primary[1]
	var affected []lsdb.ConnID
	for _, c := range conns {
		if c.primary[0] == u && c.primary[1] == v {
			affected = append(affected, c.id)
		}
	}
	dep.d.Node(u).Router.FailLink(v)
	dep.d.Node(v).Router.FailLink(u)

	switched := 0
	deadline := time.Now().Add(syncTimeout)
	for _, id := range affected {
		for {
			info, ok := src.Router.Conn(id)
			if ok && (info.Switched || info.Dead) {
				if info.Switched && !info.Dead {
					switched++
				}
				break
			}
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("drill: connection %d neither switched nor died within %v of its primary's failure", id, syncTimeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return float64(switched) / float64(len(affected)), nil
}

// runCP measures one control-plane workload.
func runCP(tcp bool, o runOpts) (*runResult, error) {
	g, topoTime, err := cpTopology()
	if err != nil {
		return nil, err
	}

	// rounds sizes the single-layer probes, warmCycles the warm-up.
	rounds, warmCycles := 2000, int64(cpWarmCycles)
	if o.smoke {
		rounds, warmCycles = 50, 10
	}

	// Set-up: deploy, sync and warm up, several times where setup_s is
	// reported; the last deployment stays.
	repeats := setupRepeats(o.smoke)
	if o.trace {
		repeats = 1
	}
	var dep *cpDeployment
	var setups []float64
	for i := 0; i < repeats; i++ {
		if dep != nil {
			dep.close()
		}
		t0 := time.Now()
		if dep, err = deployCP(tcp, g); err != nil {
			return nil, err
		}
		if warm := measureCP(dep, g, o.seed, syncTimeout.Seconds(), warmCycles, warmIDs, false); warm.err != nil {
			dep.close()
			return nil, fmt.Errorf("warm-up: %w", warm.err)
		}
		setups = append(setups, (topoTime + time.Since(t0)).Seconds())
	}
	defer dep.close()
	const unlimited = 1 << 62

	if !o.trace {
		heap := liveHeapMB(dep)
		p := measureCP(dep, g, o.seed, o.seconds, unlimited, plainIDs, false)
		if p.err != nil {
			return nil, fmt.Errorf("%d of %d cycles failed, last: %w", p.failed, p.cycles, p.err)
		}
		pact, err := recoveryDrill(dep, g)
		if err != nil {
			return nil, err
		}
		m := newMetricSet(endToEnd)
		m.set("setup_s", median(setups))
		m.set("establish_per_s", p.perSecond())
		m.set("establish_p50_us", percentile(p.requestNS, 0.50)/1e3)
		m.set("establish_p90_us", percentile(p.requestNS, 0.90)/1e3)
		m.set("live_heap_mb", heap)
		m.set("accepted_share", ratio(float64(p.cycles-p.failed), float64(p.cycles)))
		m.set("p_act_bk", pact)
		return &runResult{
			attempted: p.cycles, failed: p.failed, digest: "-", metrics: m.complete(),
			notes: []string{fmt.Sprintf("%d request+release cycles in %.2f s by %d closed-loop clients; establish_p50/p90 over %d requests",
				p.cycles, p.seconds, cpClients, len(p.requestNS))},
		}, nil
	}

	// Traced run: half the time with spans off, half with spans on, on
	// the same deployment; then the single-layer probes.
	plain := measureCP(dep, g, o.seed, o.seconds/2, unlimited, plainIDs, false)
	traced := measureCP(dep, g, o.seed, o.seconds/2, unlimited, tracedIDs, true)
	for _, p := range []cpPhase{plain, traced} {
		if p.err != nil {
			return nil, fmt.Errorf("%d of %d cycles failed, last: %w", p.failed, p.cycles, p.err)
		}
	}
	var spans []span
	for _, r := range traced.recs {
		spans = append(spans, r.spans...)
	}
	agg := aggregate(spans)

	m := newMetricSet(perLayer)
	m.set("topology.waxman_ms", topoTime.Seconds()*1e3)
	m.set("controlplane.request_us_p99", pct(agg, "controlplane.request", 0.99, 1e3))
	m.set("controlplane.release_us_p50", pct(agg, "controlplane.release", 0.50, 1e3))
	m.set("bench.trace_overhead_share", 1-ratio(traced.perSecond(), plain.perSecond()))

	enc, dec, size, err := protoProbe(g, 10*rounds)
	if err != nil {
		return nil, err
	}
	m.set("proto.encode_ns", enc)
	m.set("proto.decode_ns", dec)
	m.set("proto.bytes_per_msg", size)
	for _, t := range []struct {
		metric string
		tcp    bool
	}{{"transport.tcp.rtt_us_p50", true}, {"transport.mem.rtt_us_p50", false}} {
		rtt, err := transportProbe(t.tcp, g, rounds)
		if err != nil {
			return nil, err
		}
		m.set(t.metric, rtt)
	}
	est, rel, err := routerProbe(g, o.seed, rounds)
	if err != nil {
		return nil, err
	}
	m.set("router.establish_us_p50", est)
	m.set("router.release_us_p50", rel)
	// What the coordinator, route finder and agent add on top of the
	// routers' own hop-by-hop set-up.
	m.set("controlplane.overhead_share", 1-ratio(est, pct(agg, "controlplane.request", 0.50, 1e3)))

	path, err := writeSpans(o.outDir, o.workload, traced.recs...)
	if err != nil {
		return nil, err
	}
	return &runResult{
		attempted: plain.cycles + traced.cycles, digest: "-", metrics: m.complete(),
		notes: []string{
			fmt.Sprintf("%d cycles untraced in %.2f s, %d cycles traced in %.2f s; %d spans", plain.cycles, plain.seconds, traced.cycles, traced.seconds, len(spans)),
			fmt.Sprintf("probe samples: proto %d messages x %d, transport %d round trips each, router %d establish+release", len(protoMix(g)), 10*rounds, rounds, rounds),
			"span file: " + path,
		},
	}, nil
}

// protoMix is the fixed message mix of the codec probe: the messages of
// one establishment and release, plus a link-state update carrying a
// Conflict Vector.
func protoMix(g *graph.Graph) []proto.Envelope {
	route := []graph.NodeID{0, 3, 7, 9}
	lset := []graph.LinkID{2, 11, 17}
	cv := make([]byte, (g.NumLinks()+7)/8)
	cv[0], cv[len(cv)-1] = 0x15, 0x80
	return []proto.Envelope{
		{From: 0, To: 3, Msg: proto.Setup{Conn: 1001, Channel: proto.Backup, Route: route, Hop: 1, PrimaryLSET: lset, Trace: 77, Seq: 5}},
		{From: 9, To: 0, Msg: proto.SetupResult{Conn: 1001, Channel: proto.Backup, OK: true, Seq: 5}},
		{From: 0, To: 3, Msg: proto.Teardown{Conn: 1001, Channel: proto.Primary, Route: route, Hop: 1, UpTo: -1, Trace: 77, Seq: 6}},
		{From: 3, To: 7, Msg: proto.LSUpdate{Origin: 3, Seq: 42, Links: []proto.LinkAdvert{
			{Link: 2, AvailPrim: 1 << 20, AvailBackup: 1 << 20, Norm: 3, CV: cv},
			{Link: 11, AvailPrim: 1<<20 - 1, AvailBackup: 1 << 20, Norm: 0, CV: make([]byte, len(cv))},
		}}},
		{From: 13, To: 0, Msg: proto.ConnCommand{Op: proto.OpEstablish, Conn: 1001, Dst: 9, Primary: route, Backups: [][]graph.NodeID{{0, 4, 8, 9}}, Seq: 9}},
		{From: 0, To: 13, Msg: proto.ConnCommandResult{Conn: 1001, Seq: 9, OK: true, Primary: route, Backups: [][]graph.NodeID{{0, 4, 8, 9}}}},
	}
}

// protoProbe times the wire codec over the fixed mix and returns the
// mean nanoseconds per message to encode and to decode, and the mean
// encoded size.
func protoProbe(g *graph.Graph, rounds int) (encNS, decNS, bytesPerMsg float64, err error) {
	mix := protoMix(g)
	wire := make([][]byte, len(mix))
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i := range mix {
			if wire[i], err = mix[i].MarshalBinary(); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	encNS = float64(time.Since(t0)) / float64(rounds*len(mix))
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for i := range wire {
			var env proto.Envelope
			if err = env.UnmarshalBinary(wire[i]); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	decNS = float64(time.Since(t0)) / float64(rounds*len(mix))
	total := 0
	for _, w := range wire {
		total += len(w)
	}
	return encNS, decNS, float64(total) / float64(len(wire)), nil
}

// transportProbe returns the median round trip, in microseconds, of one
// envelope between two endpoints: a sends, b echoes.
func transportProbe(tcp bool, g *graph.Graph, rounds int) (float64, error) {
	at, trans := newTransport(tcp, g)
	defer trans.Close()
	a, err := at.Attach(0)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := at.Attach(1)
	if err != nil {
		return 0, err
	}
	// b echoes until its endpoint closes.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for env := range b.Recv() {
			_ = b.Send(env.From, env.Msg)
		}
	}()
	defer wg.Wait()
	defer b.Close()

	rtts := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if err := a.Send(1, proto.Hello{From: 0, Seq: uint64(i)}); err != nil {
			return 0, err
		}
		select {
		case <-a.Recv():
		case <-time.After(syncTimeout):
			return 0, fmt.Errorf("transport probe: no echo within %v", syncTimeout)
		}
		rtts = append(rtts, float64(time.Since(t0)))
	}
	sort.Float64s(rtts)
	return percentile(rtts, 0.5) / 1e3, nil
}

// routerProbe times Router.Establish and Router.Release with no
// coordinator above them, on an in-memory cluster over the same graph,
// and returns the medians in microseconds.
func routerProbe(g *graph.Graph, seed int64, rounds int) (establishUS, releaseUS float64, err error) {
	mem := transport.NewMem()
	defer mem.Close()
	cluster, err := router.NewCluster(router.Config{
		Graph: g, Capacity: 1 << 20, UnitBW: 1,
		HelloInterval: time.Second, HelloMiss: 100, LSInterval: 50 * time.Millisecond,
	}, mem)
	if err != nil {
		return 0, 0, err
	}
	defer cluster.Close()
	deadline := time.Now().Add(syncTimeout)
	for n := 0; n < cluster.Size(); n++ {
		for !cluster.Router(graph.NodeID(n)).Synced() {
			if time.Now().After(deadline) {
				return 0, 0, fmt.Errorf("router probe: cluster not synced after %v", syncTimeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	src := cluster.Router(0)
	dsts := rng.New(seed).Split("router-probe").Perm(g.NumNodes() - 1)
	est := make([]float64, 0, rounds)
	rel := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		id, dst := lsdb.ConnID(i+1), graph.NodeID(1+dsts[i%len(dsts)])
		t0 := time.Now()
		if _, err := src.Establish(id, dst); err != nil {
			return 0, 0, fmt.Errorf("router probe: establish %d -> %d: %w", id, dst, err)
		}
		est = append(est, float64(time.Since(t0)))
		t0 = time.Now()
		if err := src.Release(id); err != nil {
			return 0, 0, fmt.Errorf("router probe: release %d: %w", id, err)
		}
		rel = append(rel, float64(time.Since(t0)))
	}
	sort.Float64s(est)
	sort.Float64s(rel)
	return percentile(est, 0.5) / 1e3, percentile(rel, 0.5) / 1e3, nil
}
