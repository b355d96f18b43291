package controlplane_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
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

// excluded reports whether the coordinator has node n down or draining,
// so that new routes avoid it.
func excluded(d *controlplane.Deployment, n graph.NodeID) bool {
	for _, s := range d.Coord.Nodes() {
		if s.Node == n {
			return s.Down || s.Draining
		}
	}
	return false
}

// clearOf returns nil when no router holds a primary reservation or a
// backup registration for any of the connections on a link to or from
// node x, and otherwise an error naming the first link that does.
func clearOf(d *controlplane.Deployment, x graph.NodeID, conns ...lsdb.ConnID) error {
	g := d.Node(x).Router.DB().Graph()
	for l := graph.LinkID(0); int(l) < g.NumLinks(); l++ {
		lk := g.Link(l)
		if lk.From != x && lk.To != x {
			continue
		}
		db := d.Node(lk.From).Router.DB()
		for _, id := range conns {
			if prim, backup := db.HasPrimary(id, l), db.HasBackup(id, l); prim || backup {
				return fmt.Errorf("link %d->%d still holds connection %d: primary=%v backup=%v",
					lk.From, lk.To, id, prim, backup)
			}
		}
	}
	return nil
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
// count or scheme: the source router routes as many backups as the
// deployment asks for, and holds exactly the routes the coordinator
// replied with.
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
	// routes the reply names.
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

	// A duplicate request (client retry) is answered with the routes the
	// source holds.
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
	// request went through every setup stage once (the duplicate asks the
	// source without entering the pipeline). total is observed after the
	// reply is sent.
	stages := cfg.Metrics.LatencyVec("drtp_cp_stage_seconds", "", "stage")
	for _, stage := range []string{"admission", "establish", "total"} {
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

// TestAdmissionRefusesBadEndpoints: a destination outside the topology,
// on either side, or equal to the source is refused at admission as
// bad-endpoints, and one the coordinator excludes as endpoint-excluded;
// none of them holds quota.
func TestAdmissionRefusesBadEndpoints(t *testing.T) {
	ring := telemetry.NewRing(1 << 12)
	g := trident(t)
	d := deploy(t, deployConfig(g, ring), transport.NewMem())
	agent := d.Node(0).Agent
	for i, dst := range []graph.NodeID{-1, graph.NodeID(g.NumNodes()), 0} {
		reply, err := agent.Request(lsdb.ConnID(i+1), dst)
		if err != nil {
			t.Fatal(err)
		}
		if reply.OK || reply.Reason != "bad-endpoints" {
			t.Fatalf("request to %d: ok=%v reason=%q, want bad-endpoints", dst, reply.OK, reply.Reason)
		}
	}
	if dr, err := agent.DrainNode(3); err != nil || !dr.OK {
		t.Fatalf("drain: err=%v reply=%+v", err, dr)
	}
	reply, err := agent.Request(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if reply.OK || reply.Reason != "endpoint-excluded" {
		t.Fatalf("request to a drained node: ok=%v reason=%q, want endpoint-excluded", reply.OK, reply.Reason)
	}
	if n := ring.Count(telemetry.EvAdmissionReject); n != 4 {
		t.Fatalf("admission-reject events = %d, want 4", n)
	}
	if got := d.Coord.TenantConns("default"); got != 0 {
		t.Fatalf("tenant usage = %d after refusals, want 0", got)
	}
}

// TestSilentNodesDieInNodeOrder registers two nodes with a fresh
// coordinator, 20 times over, and lets both fall silent together. Each
// run must declare them dead in ascending node order.
func TestSilentNodesDieInNodeOrder(t *testing.T) {
	g := trident(t)
	for run := 0; run < 20; run++ {
		mem := transport.NewMem()
		ring := telemetry.NewRing(64)
		cfg := deployConfig(g, ring)
		cfg.HeartbeatInterval, cfg.HeartbeatMiss = 5*time.Millisecond, 2
		c, err := controlplane.NewCoordinator(cfg, mem)
		if err != nil {
			t.Fatal(err)
		}
		// The lower ID registers first, so a tick falling between the two
		// registrations also declares it dead first.
		for _, n := range []graph.NodeID{1, 3} {
			ep, err := mem.Attach(n)
			if err != nil {
				t.Fatal(err)
			}
			if err := ep.Send(controlplane.CoordinatorID(g), proto.Register{Node: n, Seq: 1}); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "both nodes declared dead", func() bool { return ring.Count(telemetry.EvNodeLeave) >= 2 })
		var got []int
		for _, e := range ring.Events() {
			if e.Kind == telemetry.EvNodeLeave {
				got = append(got, e.Node)
			}
		}
		_ = c.Close()
		_ = mem.Close()
		if !reflect.DeepEqual(got, []int{1, 3}) {
			t.Fatalf("run %d declared nodes %v dead, want [1 3]", run, got)
		}
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
	if dr.Dropped != 1 {
		t.Fatalf("drain dropped=%d, want 1", dr.Dropped)
	}

	// The crossing connection survived under the same ID on routes that
	// avoid the drained node: its source switched it off the held link
	// and re-protected it, and no router holds it on a link of the node.
	waitFor(t, "the connection moved off the drained node", func() bool {
		info, ok := d.Node(0).Router.Conn(1)
		return ok && len(info.Backups) > 0 && !visits(info.Primary, info.Backups, mid) && clearOf(d, mid, 1) == nil
	})
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
	// The terminal connection was released everywhere.
	if _, ok := d.Node(mid).Router.Conn(2); ok {
		t.Fatal("terminal connection still on drained node's router")
	}

	// Drain state: agent unready, the coordinator excludes the node from
	// new routes, new requests from it are rejected at admission.
	waitFor(t, "drained node unready", func() bool {
		ok, reason := d.Node(mid).Ready()
		return !ok && reason == "draining"
	})
	if !excluded(d, mid) {
		t.Fatal("coordinator does not exclude drained node")
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

	// Close ends every goroutine the deployment started: the coordinator
	// and agent loops, the drain's, and the parked request workers.
	srv.Close()
	srvUp.Close()
	d.Close()
	waitFor(t, "the deployment's goroutines to end", func() bool { return runtime.NumGoroutine() <= before })
}

// fan is the 6-node fixture with four node-disjoint 2-hop routes 0 -> 1
// (via 2, 3, 4 and 5): after a switch and a re-protection the connection
// still has a route around any one more node.
func fan(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := topology.FromEdgeList(6, [][2]int{{0, 2}, {2, 1}, {0, 3}, {3, 1}, {0, 4}, {4, 1}, {0, 5}, {5, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// switchAndReprotect fails the link from node 0 to the connection's
// primary transit node, then waits until the source has switched the
// connection onto its backup and re-protected it. It returns the
// re-protected routes.
func switchAndReprotect(t *testing.T, d *controlplane.Deployment, id lsdb.ConnID, admitted proto.EstablishReply) router.ConnInfo {
	t.Helper()
	d.Node(0).Router.FailLink(admitted.Primary[1])
	var info router.ConnInfo
	waitFor(t, "the switch and the re-protection", func() bool {
		var ok bool
		info, ok = d.Node(0).Router.Conn(id)
		return ok && info.Switched && len(info.Backups) > 0
	})
	if reflect.DeepEqual(info.Primary, admitted.Primary) {
		t.Fatalf("primary %v unchanged by the switch", info.Primary)
	}
	return info
}

// TestDrainAfterReprotection: a connection switched off a failed link and
// re-protected onto a fresh backup through node x, on neither of the
// routes it was admitted on, is moved off x when x drains. The held link
// reports the backup to the source, which holds the routes as they are
// now and replaces it.
func TestDrainAfterReprotection(t *testing.T) {
	g := fan(t)
	d := deploy(t, deployConfig(g, telemetry.NewRing(1<<12)), transport.NewMem())
	reply, err := d.Node(0).Agent.Request(1, 1)
	if err != nil || !reply.OK {
		t.Fatalf("establish: err=%v reason=%s", err, reply.Reason)
	}
	info := switchAndReprotect(t, d, 1, reply)
	x := info.Backups[0][1]
	if contains(reply.Primary, x) || contains(reply.Backups[0], x) {
		t.Fatalf("re-protected backup %v crosses node %d of an admitted route", info.Backups[0], x)
	}

	dr, err := d.Node(0).Agent.DrainNode(x)
	if err != nil || !dr.OK {
		t.Fatalf("drain: err=%v reply=%+v", err, dr)
	}
	if dr.Dropped != 0 {
		t.Fatalf("drain dropped=%d, want 0", dr.Dropped)
	}
	waitFor(t, "the backup moved off the drained node", func() bool {
		info, ok := d.Node(0).Router.Conn(1)
		return ok && len(info.Backups) > 0 && !visits(info.Primary, info.Backups, x)
	})
	info, ok := d.Node(0).Router.Conn(1)
	if !ok {
		t.Fatal("moved connection gone from source router")
	}
	if contains(info.Primary, x) || len(info.Backups) == 0 || contains(info.Backups[0], x) {
		t.Fatalf("moved routes %v %v, want a protected connection clear of node %d", info.Primary, info.Backups, x)
	}
	// No router holds a reservation or a backup registration for the
	// connection on a link to or from x.
	waitFor(t, "the old backup released", func() bool { return clearOf(d, x, 1) == nil })
}

// TestRetryAfterSwitch: a duplicate request for a connection that has
// switched since its admission is answered with the primary the source
// holds now, not the one it was admitted on.
func TestRetryAfterSwitch(t *testing.T) {
	g := fan(t)
	d := deploy(t, deployConfig(g, telemetry.NewRing(1<<12)), transport.NewMem())
	reply, err := d.Node(0).Agent.Request(1, 1)
	if err != nil || !reply.OK {
		t.Fatalf("establish: err=%v reason=%s", err, reply.Reason)
	}
	info := switchAndReprotect(t, d, 1, reply)

	again, err := d.Node(0).Agent.Request(1, 1)
	if err != nil || !again.OK {
		t.Fatalf("duplicate request: err=%v reason=%s", err, again.Reason)
	}
	if !reflect.DeepEqual(again.Primary, info.Primary) || !reflect.DeepEqual(again.Backups, info.Backups) {
		t.Fatalf("duplicate answered %v %v, source holds %v %v", again.Primary, again.Backups, info.Primary, info.Backups)
	}
	if got := d.Coord.TenantConns("default"); got != 1 {
		t.Fatalf("tenant usage = %d after the duplicate, want 1", got)
	}
}

// epoch is where the tests' manual clocks start.
var epoch = time.Unix(0, 0)

// lossyFan deploys the fan fixture through a fault injector whose rules
// run on a manual clock, at 0 to begin with, and attaches a bare client
// endpoint at a spare node ID. The client sends node 0's requests for
// connection 1 to node 1, so its replies cross none of node 0's faulted
// links. It returns the ring the deployment traces to as well.
func lossyFan(t *testing.T, rpcTimeout time.Duration, rules ...faultinject.LinkRule) (*controlplane.Deployment, *faultinject.Injector, *transport.ManualClock, func(per time.Duration) (proto.EstablishReply, error), *telemetry.Ring) {
	t.Helper()
	g := fan(t)
	clock := transport.NewManualClock(epoch)
	inj := faultinject.New(&faultinject.Schedule{Seed: 1, Links: rules}, transport.NewMem(), faultinject.WithClock(clock))
	ring := telemetry.NewRing(1 << 12)
	cfg := deployConfig(g, ring)
	cfg.RPCTimeout = rpcTimeout
	d := deploy(t, cfg, inj)
	coord := controlplane.CoordinatorID(g)
	client, err := inj.Attach(coord + 1)
	if err != nil {
		t.Fatal(err)
	}
	client.Recv() // start delivery
	request := func(per time.Duration) (proto.EstablishReply, error) {
		msg := proto.EstablishRequest{Conn: 1, Tenant: "default", Src: 0, Dst: 1}
		out, err := controlplane.Call(client, coord, msg, proto.EstablishReply{Conn: 1}, 1, per, nil)
		if err != nil {
			return proto.EstablishReply{}, err
		}
		return out.(proto.EstablishReply), nil
	}
	return d, inj, clock, request, ring
}

// offRoutes returns a transit node of the fan that none of the reply's
// routes visits.
func offRoutes(t *testing.T, reply proto.EstablishReply) graph.NodeID {
	t.Helper()
	for x := graph.NodeID(2); x < 6; x++ {
		if !visits(reply.Primary, reply.Backups, x) {
			return x
		}
	}
	t.Fatalf("routes %v %v visit every transit node", reply.Primary, reply.Backups)
	return -1
}

// visits reports whether the primary or a backup visits node x.
func visits(primary []graph.NodeID, backups [][]graph.NodeID, x graph.NodeID) bool {
	return contains(primary, x) || slices.ContainsFunc(backups, func(b []graph.NodeID) bool { return contains(b, x) })
}

// TestLostCommandKeepsConnection: a command for an admitted connection
// that gets no answer, a client's retry or a drain of a node the
// connection does not visit, leaves the connection admitted, since its
// source may hold it still: the tenant's usage stands, and a later
// release reaches the source. A retry while the source is held down is
// refused at once.
func TestLostCommandKeepsConnection(t *testing.T) {
	const rpc = 200 * time.Millisecond
	coord := int(controlplane.CoordinatorID(fan(t)))
	// From t=1 to t=2 the coordinator's messages to node 0 are lost; from
	// t=3 on node 0's to the coordinator, its heartbeats among them.
	d, _, clock, request, _ := lossyFan(t, rpc,
		faultinject.LinkRule{From: coord, To: 0, Drop: 1, Start: 1, End: 2},
		faultinject.LinkRule{From: 0, To: coord, Drop: 1, Start: 3})
	reply, err := d.Node(0).Agent.Request(1, 1)
	if err != nil || !reply.OK {
		t.Fatalf("establish: err=%v reason=%s", err, reply.Reason)
	}

	clock.Set(epoch.Add(1 * time.Millisecond))
	again, err := request(5 * rpc)
	if err != nil {
		t.Fatalf("duplicate request: %v", err)
	}
	if again.OK || !strings.HasPrefix(again.Reason, "establish-command") {
		t.Fatalf("duplicate request: ok=%v reason=%q, want the command's error", again.OK, again.Reason)
	}
	if got := d.Coord.TenantConns("default"); got != 1 {
		t.Fatalf("tenant usage = %d after the unanswered retry, want 1", got)
	}
	dr, err := d.Node(1).Agent.DrainNode(offRoutes(t, reply))
	if err != nil || !dr.OK || dr.Dropped != 0 {
		t.Fatalf("drain: err=%v reply=%+v, want nothing migrated or dropped", err, dr)
	}
	if got := d.Coord.TenantConns("default"); got != 1 {
		t.Fatalf("tenant usage = %d after the unanswered drain, want 1", got)
	}

	clock.Set(epoch.Add(2 * time.Millisecond))
	rel, err := d.Node(0).Agent.ReleaseConn(1)
	if err != nil || !rel.OK || rel.Reason != "" {
		t.Fatalf("release: err=%v ok=%v reason=%q, want a plain OK", err, rel.OK, rel.Reason)
	}
	if _, ok := d.Node(0).Router.Conn(1); ok {
		t.Fatal("the source router still holds the released connection")
	}
	if got := d.Coord.TenantConns("default"); got != 0 {
		t.Fatalf("tenant usage = %d after the release, want 0", got)
	}

	if reply, err := d.Node(0).Agent.Request(1, 1); err != nil || !reply.OK {
		t.Fatalf("second establish: err=%v reason=%s", err, reply.Reason)
	}
	clock.Set(epoch.Add(3 * time.Millisecond))
	waitFor(t, "node 0 held down", func() bool { return excluded(d, 0) })
	start := time.Now()
	again, err = request(rpc)
	if err != nil || again.OK || again.Reason != "src-down" {
		t.Fatalf("duplicate request with the source down: err=%v reply=%+v, want src-down", err, again)
	}
	if took := time.Since(start); took >= rpc {
		t.Fatalf("src-down answered after %v", took)
	}
	if got := d.Coord.TenantConns("default"); got != 1 {
		t.Fatalf("tenant usage = %d after the refused retry, want 1", got)
	}
}

// TestDrainAnnouncedPastLostMessages: a neighbour that misses the
// coordinator's messages for many heartbeat ticks after a drain is
// announced still hears it once they get through: the coordinator
// re-announces an excluded node on every tick. Node 0 then holds its link
// to the drained node down and routes a new connection around it, and
// the announcements that keep arriving change nothing there: the link is
// failed once.
func TestDrainAnnouncedPastLostMessages(t *testing.T) {
	const tick = 10 * time.Millisecond // deployConfig's HeartbeatInterval
	g := fan(t)
	coord := int(controlplane.CoordinatorID(g))
	// The deployment runs on a manual clock, which the schedule reads in
	// units of 21 ticks: from t=1 to t=2 the coordinator's messages to
	// node 0 are lost.
	const unit = 21 * tick
	clock := transport.NewManualClock(epoch)
	mem := transport.NewMemOn(clock)
	inj := faultinject.New(&faultinject.Schedule{Seed: 1, Links: []faultinject.LinkRule{
		{From: coord, To: 0, Drop: 1, Start: 1, End: 2}}}, mem,
		faultinject.WithClock(clock), faultinject.WithDelayUnit(unit))
	ring := telemetry.NewRing(1 << 12)
	cfg := deployConfig(g, ring)
	cfg.RPCTimeout = 200 * time.Millisecond
	d, err := controlplane.Deploy(cfg, inj)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	// stepUntil moves the clock a tick at each poll until cond holds, each
	// time once every tick the clock sent has been received.
	stepUntil := func(what string, cond func() bool) {
		t.Helper()
		waitFor(t, what, func() bool {
			if !clock.Idle() {
				return false
			}
			if cond() {
				return true
			}
			clock.Advance(tick)
			return false
		})
	}
	at := func(units int) func() bool {
		return func() bool { return !clock.Now().Before(epoch.Add(time.Duration(units) * unit)) }
	}
	step := func(ticks int) {
		t.Helper()
		to := clock.Now().Add(time.Duration(ticks) * tick)
		stepUntil(fmt.Sprintf("%d ticks", ticks), func() bool { return !clock.Now().Before(to) })
	}
	stepUntil("the deployment synced", func() bool {
		for n := 0; n < d.Size(); n++ {
			if !d.Node(graph.NodeID(n)).Agent.Registered() || !d.Node(graph.NodeID(n)).Router.Synced() {
				return false
			}
		}
		return true
	})
	step(2) // one link-state refresh over every adjacency
	reply, err := d.Node(0).Agent.Request(1, 1)
	if err != nil || !reply.OK {
		t.Fatalf("establish: err=%v reason=%s", err, reply.Reason)
	}
	x := offRoutes(t, reply)
	l, _ := g.LinkBetween(0, x)
	held := func() bool {
		availPrim, availBackup, _ := d.Node(0).Router.View(l)
		return availPrim == 0 && availBackup == 0
	}

	stepUntil("t=1", at(1))
	dr, err := d.Node(1).Agent.DrainNode(x)
	if err != nil || !dr.OK || dr.Dropped != 0 {
		t.Fatalf("drain: err=%v reply=%+v, want nothing dropped", err, dr)
	}
	// Well past the RetryLimit-1 ticks a bounded re-announcement spends.
	step(20)
	if held() {
		t.Fatal("node 0 held its link to the drained node while the announcements to it were lost")
	}

	stepUntil("t=2", at(2))
	stepUntil("node 0 holding its link to the drained node down", held)
	fresh, err := d.Node(0).Agent.Request(2, 1)
	if err != nil || !fresh.OK {
		t.Fatalf("establish after the drain: err=%v reason=%s", err, fresh.Reason)
	}
	if visits(fresh.Primary, fresh.Backups, x) {
		t.Fatalf("new connection routed %v %v through drained node %d", fresh.Primary, fresh.Backups, x)
	}
	step(10)
	fails := 0
	for _, e := range ring.Events() {
		if e.Kind == telemetry.EvLinkFail && e.Node == 0 && e.Link == int(l) {
			fails++
		}
	}
	if fails != 1 {
		t.Fatalf("node 0 failed its link to the drained node %d times, want once", fails)
	}
}

// TestDuplicateJoinsCommandInFlight: a duplicate request that arrives
// while an earlier duplicate's command for the connection is in flight is
// answered with that command's result.
func TestDuplicateJoinsCommandInFlight(t *testing.T) {
	coord := int(controlplane.CoordinatorID(fan(t)))
	// From t=1 on, the coordinator's messages to node 0 take 400 ms.
	d, inj, clock, request, _ := lossyFan(t, 2*time.Second,
		faultinject.LinkRule{From: coord, To: 0, Delay: 400, Start: 1})
	reply, err := d.Node(0).Agent.Request(1, 1)
	if err != nil || !reply.OK {
		t.Fatalf("establish: err=%v reason=%s", err, reply.Reason)
	}

	clock.Set(epoch.Add(1 * time.Millisecond))
	first := make(chan error, 1)
	go func() {
		_, err := d.Node(0).Agent.Request(1, 1)
		first <- err
	}()
	waitFor(t, "the first duplicate's command in flight", func() bool { return inj.Stats().Delays > 0 })
	// One attempt, no retransmission: only the command in flight can
	// answer it in time.
	again, err := request(time.Second)
	if err != nil || !again.OK {
		t.Fatalf("duplicate request: err=%v reply=%+v", err, again)
	}
	info, _ := d.Node(0).Router.Conn(1)
	if !reflect.DeepEqual(again.Primary, info.Primary) {
		t.Fatalf("duplicate answered %v, source holds %v", again.Primary, info.Primary)
	}
	if err := <-first; err != nil {
		t.Fatalf("first duplicate: %v", err)
	}
}

// TestDrainDuringRetryLeavesConnectionClear: a node on a connection's
// backup drains while a retried request's command for the connection is
// in flight. The drain sends that connection no command: the retry is
// answered, and the source still moves the connection clear of the node
// once the announcement reaches it.
func TestDrainDuringRetryLeavesConnectionClear(t *testing.T) {
	coord := int(controlplane.CoordinatorID(fan(t)))
	// From t=1 on, the coordinator's messages to node 0 take 400 ms.
	d, inj, clock, request, _ := lossyFan(t, 2*time.Second,
		faultinject.LinkRule{From: coord, To: 0, Delay: 400, Start: 1})
	reply, err := d.Node(0).Agent.Request(1, 1)
	if err != nil || !reply.OK {
		t.Fatalf("establish: err=%v reason=%s", err, reply.Reason)
	}
	x := reply.Backups[0][1]

	clock.Set(epoch.Add(1 * time.Millisecond))
	retried := make(chan error, 1)
	go func() {
		_, err := request(2 * time.Second)
		retried <- err
	}()
	waitFor(t, "the retry's command in flight", func() bool { return inj.Stats().Delays > 0 })
	dr, err := d.Node(1).Agent.DrainNode(x)
	if err != nil || !dr.OK || dr.Dropped != 0 {
		t.Fatalf("drain: err=%v reply=%+v, want nothing dropped", err, dr)
	}
	if err := <-retried; err != nil {
		t.Fatalf("duplicate request: %v", err)
	}
	waitFor(t, "the connection clear of the drained node", func() bool {
		info, ok := d.Node(0).Router.Conn(1)
		return ok && len(info.Backups) > 0 && !visits(info.Primary, info.Backups, x) && clearOf(d, x, 1) == nil
	})
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
	// The coordinator excludes the dead node from new routes.
	waitFor(t, "coordinator excludes dead node", func() bool { return excluded(d, mid) })
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
