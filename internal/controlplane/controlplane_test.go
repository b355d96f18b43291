package controlplane_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/controlplane"
	"github.com/rtcl/drtp/internal/faultinject"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/router"
	"github.com/rtcl/drtp/internal/telemetry"
	"github.com/rtcl/drtp/internal/topology"
	"github.com/rtcl/drtp/internal/transport"
)

// trident is the 5-node fixture with three node-disjoint 2-hop routes
// 0 -> 1 (via 2, via 3, via 4) and no direct link, so every route
// transits a middle node.
func trident(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := tridentGraph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func tridentGraph() (*graph.Graph, error) {
	return topology.FromEdgeList(5, [][2]int{{0, 2}, {2, 1}, {0, 3}, {3, 1}, {0, 4}, {4, 1}})
}

// deployConfig returns fast-timer settings for tests; the hello detector
// is deliberately slowed so failure detection under test is driven by
// the control plane's heartbeats, not the routers' own hellos.
func deployConfig(g *graph.Graph, ring *telemetry.Ring) controlplane.DeployConfig {
	return controlplane.DeployConfig{
		Graph:             g,
		Capacity:          10,
		UnitBW:            1,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatMiss:     3,
		RPCTimeout:        2 * time.Second,
		RetryLimit:        3,
		Telemetry:         telemetry.NewTracer(ring),
		Router: router.Config{
			HelloInterval: 250 * time.Millisecond,
			HelloMiss:     20,
			LSInterval:    20 * time.Millisecond,
			SetupTimeout:  2 * time.Second,
		},
	}
}

func deploy(t *testing.T, cfg controlplane.DeployConfig, at controlplane.Attacher) *controlplane.Deployment {
	t.Helper()
	d, err := controlplane.Deploy(cfg, at)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if err := d.WaitSynced(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return d
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func contains(nodes []graph.NodeID, n graph.NodeID) bool {
	for _, x := range nodes {
		if x == n {
			return true
		}
	}
	return false
}

// TestDeploymentServicesShareConfig deploys with a non-default backup
// count or scheme: the route finder routes as many backups as the
// routers keep, and the source router holds exactly the routes the
// coordinator replied with.
func TestDeploymentServicesShareConfig(t *testing.T) {
	for _, tc := range []struct {
		name        string
		backups     int
		scheme      router.BackupScheme
		wantBackups int
	}{
		{name: "two backups", backups: 2, wantBackups: 2},
		{name: "P-LSR", scheme: router.PLSR, wantBackups: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := trident(t)
			cfg := deployConfig(g, telemetry.NewRing(1<<12))
			cfg.Backups, cfg.Scheme = tc.backups, tc.scheme
			d := deploy(t, cfg, transport.NewMem())

			reply, err := d.Node(0).Agent.Request(1, 1)
			if err != nil || !reply.OK {
				t.Fatalf("request: err=%v reason=%q", err, reply.Reason)
			}
			if len(reply.Backups) != tc.wantBackups {
				t.Fatalf("reply carries %d backups %v, want %d", len(reply.Backups), reply.Backups, tc.wantBackups)
			}
			info, ok := d.Node(0).Router.Conn(1)
			if !ok {
				t.Fatal("router has no connection record")
			}
			if !reflect.DeepEqual(info.Primary, reply.Primary) || !reflect.DeepEqual(info.Backups, reply.Backups) {
				t.Fatalf("router holds primary %v backups %v, reply said %v %v",
					info.Primary, info.Backups, reply.Primary, reply.Backups)
			}
		})
	}
}

func TestEstablishAndReleaseViaCoordinator(t *testing.T) {
	ring := telemetry.NewRing(1 << 12)
	g := trident(t)
	cfg := deployConfig(g, ring)
	cfg.Metrics = telemetry.NewRegistry()
	d := deploy(t, cfg, transport.NewMem())

	reply, err := d.Node(0).Agent.Request(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.OK {
		t.Fatalf("establish rejected: %s", reply.Reason)
	}
	if len(reply.Primary) != 3 || reply.Primary[0] != 0 || reply.Primary[2] != 1 {
		t.Fatalf("primary = %v", reply.Primary)
	}
	if len(reply.Backups) == 0 {
		t.Fatal("no backups in reply")
	}
	// The source router holds the connection, established along the
	// commanded routes.
	info, ok := d.Node(0).Router.Conn(1)
	if !ok {
		t.Fatal("router has no connection record")
	}
	if info.Primary[1] != reply.Primary[1] {
		t.Fatalf("router primary %v != reply primary %v", info.Primary, reply.Primary)
	}
	// The coordinator tracks the admission.
	if got := d.Coord.TenantConns("default"); got != 1 {
		t.Fatalf("tenant usage = %d, want 1", got)
	}
	if _, _, ok := d.Coord.Conn(1); !ok {
		t.Fatal("coordinator has no connection record")
	}

	// A duplicate request (client retry) replays the established routes.
	again, err := d.Node(0).Agent.Request(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !again.OK || len(again.Primary) != len(reply.Primary) {
		t.Fatalf("duplicate request: ok=%v primary=%v", again.OK, again.Primary)
	}

	rel, err := d.Node(0).Agent.ReleaseConn(1)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.OK {
		t.Fatalf("release failed: %s", rel.Reason)
	}
	if _, ok := d.Node(0).Router.Conn(1); ok {
		t.Fatal("router still holds released connection")
	}
	if got := d.Coord.TenantConns("default"); got != 0 {
		t.Fatalf("tenant usage after release = %d, want 0", got)
	}
	if ring.Count(telemetry.EvNodeJoin) < 5 {
		t.Fatalf("node-join events = %d, want >= 5", ring.Count(telemetry.EvNodeJoin))
	}
	// Deploy hands the registry to the coordinator too: the one admitted
	// request went through every setup stage once (the duplicate replays
	// the recorded routes without entering the pipeline). total is
	// observed after the reply is sent.
	stages := cfg.Metrics.LatencyVec("drtp_cp_stage_seconds", "", "stage")
	for _, stage := range []string{"admission", "route_query", "establish", "total"} {
		h := stages.With(stage)
		waitFor(t, "stage "+stage+" observed", func() bool { return h.Count() >= 1 })
		if n := h.Count(); n != 1 {
			t.Fatalf("drtp_cp_stage_seconds{stage=%q} count = %d, want 1", stage, n)
		}
	}
}

// TestReleaseOutrunsEstablishment: a release that reaches the coordinator
// while the connection's establishment is still in flight — a client
// whose request timed out, cleaning up — is carried out, and answered,
// once the establishment settles: the source router holds nothing and
// the tenant's quota is returned.
func TestReleaseOutrunsEstablishment(t *testing.T) {
	g := trident(t)
	// What the coordinator sends node 0, its commands above all, is held
	// back, so the establishment is still in flight when the release
	// arrives.
	sched := &faultinject.Schedule{Seed: 1, Links: []faultinject.LinkRule{
		{From: int(controlplane.CoordinatorID(g)), To: 0, Delay: 200},
	}}
	d := deploy(t, deployConfig(g, telemetry.NewRing(1<<12)), faultinject.New(sched, transport.NewMem()))
	agent := d.Node(0).Agent

	established := make(chan proto.EstablishReply, 1)
	go func() {
		reply, _ := agent.Request(1, 1)
		established <- reply
	}()
	waitFor(t, "the establishment admitted", func() bool { return d.Coord.TenantConns("default") == 1 })
	rel, err := agent.ReleaseConn(1)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-established:
	case <-time.After(5 * time.Second):
		t.Fatal("the establishment never settled")
	}
	if _, ok := d.Node(0).Router.Conn(1); ok {
		t.Fatal("the source router still holds the connection")
	}
	if got := d.Coord.TenantConns("default"); got != 0 {
		t.Fatalf("tenant usage = %d after the release, want 0", got)
	}
	if !rel.OK || rel.Reason != "" {
		t.Fatalf("release reply: ok=%v reason=%q, want a plain OK", rel.OK, rel.Reason)
	}
}

func TestQuotaRejection(t *testing.T) {
	ring := telemetry.NewRing(1 << 12)
	g := trident(t)
	cfg := deployConfig(g, ring)
	cfg.Quotas = map[string]controlplane.Quota{
		"acme": {MaxConns: 2},
		"thin": {MaxBandwidth: 1}, // one UnitBW worth
	}
	cfg.Tenants = map[graph.NodeID]string{0: "acme", 3: "thin"}
	d := deploy(t, cfg, transport.NewMem())

	for id := 1; id <= 2; id++ {
		reply, err := d.Node(0).Agent.Request(lsdb.ConnID(id), 1)
		if err != nil || !reply.OK {
			t.Fatalf("conn %d: err=%v reason=%s", id, err, reply.Reason)
		}
	}
	reply, err := d.Node(0).Agent.Request(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reply.OK || reply.Reason != "quota-conns" {
		t.Fatalf("third conn: ok=%v reason=%q, want quota-conns reject", reply.OK, reply.Reason)
	}

	// Bandwidth quota: the "thin" tenant affords exactly one unit.
	reply, err = d.Node(3).Agent.Request(10, 1)
	if err != nil || !reply.OK {
		t.Fatalf("thin conn: err=%v reason=%s", err, reply.Reason)
	}
	reply, err = d.Node(3).Agent.Request(11, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reply.OK || reply.Reason != "quota-bandwidth" {
		t.Fatalf("thin second conn: ok=%v reason=%q, want quota-bandwidth reject", reply.OK, reply.Reason)
	}

	if ring.Count(telemetry.EvAdmissionReject) < 2 {
		t.Fatalf("admission-reject events = %d, want >= 2", ring.Count(telemetry.EvAdmissionReject))
	}

	// Releasing frees quota for a new admission.
	if rel, err := d.Node(0).Agent.ReleaseConn(1); err != nil || !rel.OK {
		t.Fatalf("release: err=%v reason=%s", err, rel.Reason)
	}
	reply, err = d.Node(0).Agent.Request(3, 1)
	if err != nil || !reply.OK {
		t.Fatalf("post-release conn: err=%v reason=%s", err, reply.Reason)
	}
}

func TestDrainMigratesConnections(t *testing.T) {
	before := runtime.NumGoroutine()
	ring := telemetry.NewRing(1 << 12)
	g := trident(t)
	d := deploy(t, deployConfig(g, ring), transport.NewMem())

	reply, err := d.Node(0).Agent.Request(1, 1)
	if err != nil || !reply.OK {
		t.Fatalf("establish: err=%v reason=%s", err, reply.Reason)
	}
	mid := reply.Primary[1] // the node the primary transits

	// A connection originated at the middle node is not re-routable.
	if r2, err := d.Node(mid).Agent.Request(2, 1); err != nil || !r2.OK {
		t.Fatalf("terminal establish: err=%v reason=%s", err, r2.Reason)
	}

	dr, err := d.Node(0).Agent.DrainNode(mid)
	if err != nil {
		t.Fatal(err)
	}
	if !dr.OK {
		t.Fatalf("drain failed: %s", dr.Reason)
	}
	if dr.Migrated != 1 || dr.Dropped != 1 {
		t.Fatalf("drain migrated=%d dropped=%d, want 1/1", dr.Migrated, dr.Dropped)
	}

	// The migrated connection survived under the same ID on routes that
	// avoid the drained node.
	info, ok := d.Node(0).Router.Conn(1)
	if !ok {
		t.Fatal("migrated connection gone from source router")
	}
	if contains(info.Primary, mid) {
		t.Fatalf("migrated primary %v still transits drained node %d", info.Primary, mid)
	}
	for _, b := range info.Backups {
		if contains(b, mid) {
			t.Fatalf("migrated backup %v still transits drained node %d", b, mid)
		}
	}
	primary, _, ok := d.Coord.Conn(1)
	if !ok || contains(primary, mid) {
		t.Fatalf("coordinator record: ok=%v primary=%v", ok, primary)
	}
	// The terminal connection was released everywhere.
	if _, ok := d.Node(mid).Router.Conn(2); ok {
		t.Fatal("terminal connection still on drained node's router")
	}

	// Drain state: agent unready, route finder excludes the node, new
	// requests from it are rejected at admission.
	waitFor(t, "drained node unready", func() bool {
		ok, reason := d.Node(mid).Ready()
		return !ok && reason == "draining"
	})
	if !d.RF.Excluded(mid) {
		t.Fatal("route finder does not exclude drained node")
	}
	rej, err := d.Node(mid).Agent.Request(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rej.OK || rej.Reason != "src-draining" {
		t.Fatalf("request from draining node: ok=%v reason=%q", rej.OK, rej.Reason)
	}

	// Draining an already-drained node reports cleanly.
	again, err := d.Node(0).Agent.DrainNode(mid)
	if err != nil {
		t.Fatal(err)
	}
	if !again.OK || again.Reason != "already-drained" {
		t.Fatalf("second drain: ok=%v reason=%q", again.OK, again.Reason)
	}

	if ring.Count(telemetry.EvDrainStart) != 1 || ring.Count(telemetry.EvDrainDone) != 1 {
		t.Fatalf("drain events: start=%d done=%d", ring.Count(telemetry.EvDrainStart), ring.Count(telemetry.EvDrainDone))
	}

	// The readiness probe surfaces the drain over HTTP.
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(telemetry.Handler(reg, d.Node(mid).Ready))
	defer srv.Close()
	if code, body := httpGet(t, srv.URL+"/readyz"); code != 503 || !strings.Contains(body, "draining") {
		t.Fatalf("/readyz = %d %q, want 503 draining", code, body)
	}
	if code, _ := httpGet(t, srv.URL+"/healthz"); code != 200 {
		t.Fatalf("/healthz = %d, want 200", code)
	}
	srvUp := httptest.NewServer(telemetry.Handler(reg, d.Node(0).Ready))
	defer srvUp.Close()
	if code, _ := httpGet(t, srvUp.URL+"/readyz"); code != 200 {
		t.Fatalf("healthy node /readyz = %d, want 200", code)
	}

	// Close ends every goroutine the deployment started: the route
	// finder, coordinator and agent loops, the drain worker, and the
	// parked request workers.
	srv.Close()
	srvUp.Close()
	d.Close()
	waitFor(t, "the deployment's goroutines to end", func() bool { return runtime.NumGoroutine() <= before })
}

func TestHeartbeatMissPropagatesAsLinkDeath(t *testing.T) {
	ring := telemetry.NewRing(1 << 12)
	g := trident(t)
	d := deploy(t, deployConfig(g, ring), transport.NewMem())

	reply, err := d.Node(0).Agent.Request(1, 1)
	if err != nil || !reply.OK {
		t.Fatalf("establish: err=%v reason=%s", err, reply.Reason)
	}
	mid := reply.Primary[1]

	// Kill the transit node's process abruptly (no graceful leave): its
	// endpoint closes, heartbeats stop. The routers' own hello detector
	// is configured an order of magnitude slower than the heartbeat
	// detector, so recovery within the deadline below proves the
	// control-plane path: heartbeat-miss -> NodeDown -> FailLink ->
	// failure report -> backup activation.
	start := time.Now()
	_ = d.Node(mid).Router.Close()

	waitFor(t, "backup activation after heartbeat miss", func() bool {
		info, ok := d.Node(0).Router.Conn(1)
		return ok && info.Switched && !info.Dead
	})
	elapsed := time.Since(start)

	if n := ring.Count(telemetry.EvHeartbeatMiss); n < 1 {
		t.Fatalf("heartbeat-miss events = %d, want >= 1", n)
	}
	if n := ring.Count(telemetry.EvNodeLeave); n < 1 {
		t.Fatalf("node-leave events = %d, want >= 1", n)
	}
	if n := ring.Count(telemetry.EvBackupActivate); n < 1 {
		t.Fatalf("backup-activate events = %d, want >= 1", n)
	}
	// The hello detector alone would have needed HelloMiss*HelloInterval
	// = 5s; control-plane detection must beat it comfortably.
	if elapsed >= 5*time.Second {
		t.Fatalf("recovery took %v, not faster than hello detection", elapsed)
	}
	info, _ := d.Node(0).Router.Conn(1)
	if contains(info.Primary, mid) {
		t.Fatalf("recovered primary %v still uses dead node %d", info.Primary, mid)
	}
	// The route finder excludes the dead node from new routes.
	waitFor(t, "route finder excludes dead node", func() bool { return d.RF.Excluded(mid) })
	fresh, err := d.Node(0).Agent.Request(5, 1)
	if err != nil || !fresh.OK {
		t.Fatalf("post-failure establish: err=%v reason=%s", err, fresh.Reason)
	}
	if contains(fresh.Primary, mid) {
		t.Fatalf("new primary %v routed through dead node %d", fresh.Primary, mid)
	}
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// routeFinderClient starts a route finder on g over an in-memory
// transport, tracing into events, and returns it with a client's send and
// a query that doubles as a barrier: the finder handles one sender's
// messages in order, so a reply means everything sent before it was
// handled.
func routeFinderClient(t *testing.T, g *graph.Graph, events *telemetry.Buffer) (*controlplane.RouteFinder, func(proto.Message), func() proto.RouteReply) {
	t.Helper()
	mem := transport.NewMem()
	t.Cleanup(func() { _ = mem.Close() })
	rf, err := controlplane.NewRouteFinder(controlplane.DeployConfig{
		Graph: g, Capacity: 10, UnitBW: 1, Telemetry: telemetry.NewTracer(events),
	}, mem)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rf.Close() })
	client, err := mem.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	send := func(m proto.Message) {
		t.Helper()
		if err := client.Send(controlplane.RouteFinderID(g), m); err != nil {
			t.Fatal(err)
		}
	}
	var queryID uint64
	query := func() proto.RouteReply {
		t.Helper()
		queryID++
		send(proto.RouteQuery{ID: queryID, Src: 0, Dst: 1})
		select {
		case env := <-client.Recv():
			reply, ok := env.Msg.(proto.RouteReply)
			if !ok || reply.ID != queryID || !reply.OK {
				t.Fatalf("query %d: got %#v", queryID, env.Msg)
			}
			return reply
		case <-time.After(5 * time.Second):
			t.Fatalf("query %d: no reply; the route finder is gone", queryID)
			return proto.RouteReply{}
		}
	}
	return rf, send, query
}

// droppedAdverts sums the link summaries events counts as dropped out of
// range.
func droppedAdverts(events *telemetry.Buffer) int {
	dropped := 0
	for _, e := range events.Events() {
		if e.Kind == telemetry.EvLSUpdate && e.Reason == "out-of-range" {
			dropped += e.N
		}
	}
	return dropped
}

// TestRouteFinderDropsHostileLinkAdvert feeds the route finder link
// summaries whose link IDs lie outside the topology on both sides. It
// must drop and count them, keep its view, and keep answering queries.
func TestRouteFinderDropsHostileLinkAdvert(t *testing.T) {
	g := trident(t)
	events := telemetry.NewBuffer()
	_, send, query := routeFinderClient(t, g, events)

	// A genuine advert first, so the view has something to lose: with no
	// primary bandwidth on 0->2 the primary must leave through 3.
	l02, _ := g.LinkBetween(0, 2)
	send(proto.LSUpdate{Origin: 0, Seq: 1, Links: []proto.LinkAdvert{{Link: l02, AvailBackup: 10}}})
	before := query()
	if before.Primary[1] != 3 {
		t.Fatalf("primary %v ignores the advert for link %d", before.Primary, l02)
	}

	n := graph.LinkID(g.NumLinks())
	send(proto.LSUpdate{Origin: 2, Seq: 1, Links: []proto.LinkAdvert{
		{Link: -1, AvailPrim: 10, AvailBackup: 10, CV: []byte{0xff}},
		{Link: n, AvailPrim: 10, AvailBackup: 10, CV: []byte{0xff}},
	}})
	after := query()
	if !reflect.DeepEqual(before.Primary, after.Primary) || !reflect.DeepEqual(before.Backups, after.Backups) {
		t.Fatalf("routes changed: before %+v, after %+v", before, after)
	}
	if dropped := droppedAdverts(events); dropped != 2 {
		t.Fatalf("counted %d dropped adverts, want 2", dropped)
	}
}

// TestRouteFinderIgnoresHostileOrigins feeds the route finder adverts from
// every topology node but one, plus adverts from two origins outside the
// topology, one on each side. The hostile adverts must be dropped whole
// and counted, one per link summary, and must not make the finder read as
// synced; the last real origin's advert does. It pins the mirroring rule
// (DESIGN.md, link-state adverts).
func TestRouteFinderIgnoresHostileOrigins(t *testing.T) {
	g, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	events := telemetry.NewBuffer()
	rf, send, query := routeFinderClient(t, g, events)
	n := graph.NodeID(g.NumNodes())
	for o := graph.NodeID(0); o < n-1; o++ {
		send(proto.LSUpdate{Origin: o, Seq: 1})
	}
	for _, o := range []graph.NodeID{-1, n + 5} {
		send(proto.LSUpdate{Origin: o, Seq: 1, Links: []proto.LinkAdvert{{Link: 0}, {Link: 1}}})
	}
	query()
	if rf.Synced() {
		t.Fatalf("synced with adverts from %d of %d nodes and two hostile origins", n-1, n)
	}
	if dropped := droppedAdverts(events); dropped != 4 {
		t.Fatalf("counted %d dropped adverts, want 4 (two per hostile origin)", dropped)
	}
	send(proto.LSUpdate{Origin: n - 1, Seq: 1})
	query()
	if !rf.Synced() {
		t.Fatalf("not synced with adverts from all %d nodes", n)
	}
}
