package router_test

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/faultinject"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/router"
	"github.com/rtcl/drtp/internal/telemetry"
	"github.com/rtcl/drtp/internal/topology"
	"github.com/rtcl/drtp/internal/transport"
)

// theta is the 5-node fixture with three parallel routes 0 -> 1.
func theta(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := topology.FromEdgeList(5, [][2]int{{0, 1}, {0, 2}, {2, 1}, {0, 3}, {3, 4}, {4, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// newCluster starts routers for every node of g over an in-memory
// switchboard, with fast timers for tests.
func newCluster(t *testing.T, g *graph.Graph, capacity int) *router.Cluster {
	t.Helper()
	mem := transport.NewMem()
	c, err := router.NewCluster(router.Config{
		Graph:         g,
		Capacity:      capacity,
		UnitBW:        1,
		HelloInterval: 10 * time.Millisecond,
		HelloMiss:     3,
		LSInterval:    20 * time.Millisecond,
		SetupTimeout:  3 * time.Second,
	}, mem)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		_ = mem.Close()
	})
	return c
}

// noDetector is a HelloMiss budget no test can exhaust, for tests that
// need live adjacencies and do not test failure detection: a budget of a
// few 10 ms hellos runs out whenever the process is descheduled that long,
// every adjacency is declared down at once, and failed links stay failed.
const noDetector = 1 << 20

// waitFor polls cond until it holds or the deadline expires.
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

func nodesEqual(got []graph.NodeID, want ...graph.NodeID) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestEstablishReservesBothChannels(t *testing.T) {
	c := newCluster(t, theta(t), 10)
	src := c.Router(0)
	info, err := src.Establish(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !nodesEqual(info.Primary, 0, 1) {
		t.Fatalf("primary = %v", info.Primary)
	}
	if !nodesEqual(info.Backup, 0, 2, 1) {
		t.Fatalf("backup = %v", info.Backup)
	}
	// The primary reservation lives on router 0's out-link, the backup
	// registrations on routers 0 and 2.
	l01, _ := theta(t).LinkBetween(0, 1)
	if src.DB().PrimeBW(l01) != 1 {
		t.Fatalf("prime on 0->1 = %d", src.DB().PrimeBW(l01))
	}
	l21, _ := theta(t).LinkBetween(2, 1)
	if c.Router(2).DB().NumBackupsOn(l21) != 1 {
		t.Fatal("backup not registered at router 2")
	}
	if _, ok := src.Conn(1); !ok {
		t.Fatal("connection not recorded")
	}
}

// TestInPlaceHopsAreMetered: the hops a source handles in place — hop 0 of
// its setup walks and of its teardown sweeps — count in its per-hop
// signalling histograms like hops that arrive over the transport.
func TestInPlaceHopsAreMetered(t *testing.T) {
	g := theta(t)
	mem := transport.NewMem()
	t.Cleanup(func() { _ = mem.Close() })
	// Router 0 gets a registry of its own, so its counts are only the hops
	// router 0 handled.
	reg := telemetry.NewRegistry()
	routers := make([]*router.Router, g.NumNodes())
	for n := range routers {
		ep, err := mem.Attach(graph.NodeID(n))
		if err != nil {
			t.Fatal(err)
		}
		cfg := router.Config{Node: graph.NodeID(n), Graph: g, Capacity: 10, UnitBW: 1,
			HelloInterval: time.Minute, LSInterval: 20 * time.Millisecond}
		if n == 0 {
			cfg.Metrics = reg
		}
		if routers[n], err = router.New(cfg, ep); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = routers[n].Close() })
	}
	if _, err := routers[0].Establish(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := routers[0].Release(1); err != nil {
		t.Fatal(err)
	}
	hops := reg.LatencyVec("drtp_router_hop_signal_seconds", "", "role")
	for role, want := range map[string]int64{"primary": 1, "backup": 1, "teardown": 2} {
		if got := hops.With(role).Count(); got != want {
			t.Errorf("router 0 counted %d %s hops, want %d", got, role, want)
		}
	}
}

func TestEstablishDuplicateAndUnknownRelease(t *testing.T) {
	c := newCluster(t, theta(t), 10)
	if _, err := c.Router(0).Establish(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Router(0).Establish(1, 4); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := c.Router(0).Release(99); err == nil {
		t.Fatal("release of unknown connection accepted")
	}
}

func TestReleaseFreesAllHops(t *testing.T) {
	g := theta(t)
	c := newCluster(t, g, 10)
	if _, err := c.Router(0).Establish(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Router(0).Release(1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all reservations released", func() bool {
		for n := 0; n < c.Size(); n++ {
			db := c.Router(graph.NodeID(n)).DB()
			if db.TotalPrimeBW() != 0 || db.TotalSpareBW() != 0 {
				return false
			}
		}
		return true
	})
	if _, ok := c.Router(0).Conn(1); ok {
		t.Fatal("connection still recorded")
	}
}

func TestSecondBackupAvoidsConflict(t *testing.T) {
	// Two connections with overlapping primaries: once router 0 learns
	// (via its own local state) that the via-2 route carries a
	// conflicting backup, the second backup must detour via 3-4.
	c := newCluster(t, theta(t), 10)
	src := c.Router(0)
	a, err := src.Establish(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !nodesEqual(a.Backup, 0, 2, 1) {
		t.Fatalf("first backup = %v", a.Backup)
	}
	b, err := src.Establish(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !nodesEqual(b.Backup, 0, 3, 4, 1) {
		t.Fatalf("second backup = %v, want detour via 3-4", b.Backup)
	}
}

// TestDisruptionOnManualClock: on a manual clock the disruption histogram
// holds exactly the time the clock moved between a failure report and the
// backup's activation. The activation is held on its way from the source
// to the backup's next hop for 3 ms of the clock's time, and nothing else
// moves the clock meanwhile.
func TestDisruptionOnManualClock(t *testing.T) {
	g := theta(t)
	start := time.Unix(0, 0)
	clock := transport.NewManualClock(start)
	mem := transport.NewMemOn(clock)
	// From t=110 ms on, between refreshes, messages from node 0 to node 2
	// take 3 ms.
	inj := faultinject.New(&faultinject.Schedule{Seed: 1, Links: []faultinject.LinkRule{
		{From: 0, To: 2, Delay: 3, Start: 110}}}, mem, faultinject.WithClock(clock))
	reg := telemetry.NewRegistry()
	c, err := router.NewCluster(router.Config{
		Graph: g, Capacity: 10, UnitBW: 1, Metrics: reg,
		HelloInterval: time.Hour, HelloMiss: noDetector,
		LSInterval: 20 * time.Millisecond, SetupTimeout: 3 * time.Second,
	}, inj)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		_ = mem.Close()
	})
	// advanceTo moves the clock one refresh at each poll, once every tick
	// it sent has been received, until it reaches t.
	advanceTo := func(to time.Time) {
		waitFor(t, "the clock at "+to.Sub(start).String(), func() bool {
			if !clock.Idle() {
				return false
			}
			if !clock.Now().Before(to) {
				return true
			}
			clock.Advance(min(20*time.Millisecond, to.Sub(clock.Now())))
			return false
		})
	}
	advanceTo(start.Add(60 * time.Millisecond)) // refreshes reach every view
	if _, err := c.Router(0).Establish(1, 1); err != nil {
		t.Fatal(err)
	}
	advanceTo(start.Add(110 * time.Millisecond))
	c.Router(0).FailLink(1)
	waitFor(t, "the activation held", func() bool { return inj.Stats().Delays > 0 })
	clock.Advance(3 * time.Millisecond)
	waitFor(t, "connection switched to backup", func() bool {
		info, ok := c.Router(0).Conn(1)
		return ok && info.Switched && !info.Dead
	})
	h := reg.Latency("drtp_router_disruption_seconds", "")
	if h.Count() != 1 || h.Sum() != 3*time.Millisecond {
		t.Fatalf("disruption histogram: %d observations summing to %v, want one of 3ms", h.Count(), h.Sum())
	}
}

func TestFailureSwitchesToBackup(t *testing.T) {
	g := theta(t)
	c := newCluster(t, g, 10)
	src := c.Router(0)
	if _, err := src.Establish(1, 1); err != nil {
		t.Fatal(err)
	}
	c.FailEdge(0, 1)
	waitFor(t, "connection switched to backup", func() bool {
		info, ok := src.Conn(1)
		return ok && info.Switched && !info.Dead
	})
	// The backup route now carries primary bandwidth.
	l02, _ := g.LinkBetween(0, 2)
	waitFor(t, "spare converted to primary on 0->2", func() bool {
		return src.DB().PrimeBW(l02) == 1 && src.DB().SpareBW(l02) == 0
	})
	// The old primary reservation was reconfigured away.
	l01, _ := g.LinkBetween(0, 1)
	waitFor(t, "old primary released", func() bool {
		return src.DB().PrimeBW(l01) == 0
	})
	// Release after switch cleans up the converted path.
	if err := src.Release(1); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, c)
}

func TestContentionKillsSecondSwitch(t *testing.T) {
	// Capacity 2 with background primary load on the via-2 route leaves
	// spare for a single activation. Both connections' primaries share
	// 0->1; the conflict-blind situation is forced by filling the via-3-4
	// route so D-LSR has no conflict-free alternative.
	g := theta(t)
	c := newCluster(t, g, 2)
	// Background primaries: one unit on 0->2, 2->1 and fill 0->3 fully so
	// backups cannot detour.
	for _, hop := range [][2]graph.NodeID{{0, 2}, {2, 1}} {
		l, _ := g.LinkBetween(hop[0], hop[1])
		if err := c.Router(hop[0]).DB().ReservePrimary(900, l); err != nil {
			t.Fatal(err)
		}
	}
	l03, _ := g.LinkBetween(0, 3)
	for id := lsdb.ConnID(901); id <= 902; id++ {
		if err := c.Router(0).DB().ReservePrimary(id, l03); err != nil {
			t.Fatal(err)
		}
	}

	src := c.Router(0)
	// The background reservations bypassed the routers; wait for the
	// periodic advertisement to sync router 0's own view.
	l02, _ := g.LinkBetween(0, 2)
	waitFor(t, "view sync", func() bool {
		availPrim, _, _ := src.View(l02)
		_, availBackup, _ := src.View(l03)
		return availPrim == 1 && availBackup == 0
	})
	if _, err := src.Establish(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Establish(2, 1); err != nil {
		t.Fatal(err)
	}
	a, _ := src.Conn(1)
	b, _ := src.Conn(2)
	if !nodesEqual(a.Backup, 0, 2, 1) || !nodesEqual(b.Backup, 0, 2, 1) {
		t.Fatalf("backups = %v / %v, both must share via-2", a.Backup, b.Backup)
	}

	c.FailEdge(0, 1)
	waitFor(t, "one switched, one dead", func() bool {
		a, _ := src.Conn(1)
		b, _ := src.Conn(2)
		return (a.Switched && b.Dead) || (a.Dead && b.Switched)
	})
}

func TestNoRouteToUnreachableBandwidth(t *testing.T) {
	g := theta(t)
	c := newCluster(t, g, 1)
	// Fill every out-link of node 0 so no primary fits.
	for _, l := range g.Out(0) {
		if err := c.Router(0).DB().ReservePrimary(lsdb.ConnID(900+l), l); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the periodic advertisement to sync the router's own view
	// with the reservations made behind its back.
	waitFor(t, "view sync", func() bool {
		for _, l := range g.Out(0) {
			if availPrim, _, _ := c.Router(0).View(l); availPrim != 0 {
				return false
			}
		}
		return true
	})
	_, err := c.Router(0).Establish(1, 1)
	if !errors.Is(err, router.ErrNoRoute) {
		t.Fatalf("err = %v", err)
	}
}

func TestBackupRequiredOnLine(t *testing.T) {
	// On a line there is no second route: the primary must be torn down
	// and the request rejected.
	g, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, g, 10)
	// The backup search over the view assigns Q to primary links, so a
	// backup identical to the primary is still found (bridge fallback);
	// it registers fine, so the connection succeeds with an overlapping
	// backup. Verify that instead of a rejection.
	info, err := c.Router(0).Establish(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !nodesEqual(info.Backup, 0, 1, 2) {
		t.Fatalf("backup = %v", info.Backup)
	}
}

func TestLinkStateDissemination(t *testing.T) {
	g := theta(t)
	c := newCluster(t, g, 10)
	if _, err := c.Router(0).Establish(1, 1); err != nil {
		t.Fatal(err)
	}
	// Router 4 learns about 0->1's reduced primary availability and the
	// backup registrations on 0->2 via flooding.
	l01, _ := g.LinkBetween(0, 1)
	l02, _ := g.LinkBetween(0, 2)
	waitFor(t, "router 4 view update", func() bool {
		availPrim, _, _ := c.Router(4).View(l01)
		_, _, norm := c.Router(4).View(l02)
		return availPrim <= 9 && norm >= 1
	})
}

// reportLog is a router endpoint that records, in order, every failure
// report the router sends.
type reportLog struct {
	transport.Endpoint
	mu   sync.Mutex
	sent []proto.Envelope
}

func (e *reportLog) Send(to graph.NodeID, m proto.Message) error {
	if _, ok := m.(proto.FailureReport); ok {
		e.mu.Lock()
		e.sent = append(e.sent, proto.Envelope{To: to, Msg: m})
		e.mu.Unlock()
	}
	return e.Endpoint.Send(to, m)
}

// TestFailureReportsInFixedOrder fails a link carrying primaries from
// three sources, 20 times over on fresh routers. Every run must send the
// same reports in the same order, sources ascending and each report's
// connections ascending, whatever order the primaries arrived in.
func TestFailureReportsInFixedOrder(t *testing.T) {
	g := theta(t)
	const self, next = graph.NodeID(0), graph.NodeID(1)
	l, _ := g.LinkBetween(self, next)
	// Source s sets up connections 10s+1 … 10s+4, interleaved across the
	// sources and in neither order.
	srcs := []graph.NodeID{52, 50, 51}
	var want []proto.Envelope
	for _, s := range []graph.NodeID{50, 51, 52} {
		base := lsdb.ConnID(s) * 10
		want = append(want, proto.Envelope{To: s, Msg: proto.FailureReport{
			Link: l, Conns: []lsdb.ConnID{base + 1, base + 2, base + 3, base + 4},
		}})
	}
	for run := 0; run < 20; run++ {
		mem := transport.NewMem()
		ep, err := mem.Attach(self)
		if err != nil {
			t.Fatal(err)
		}
		rec := &reportLog{Endpoint: ep}
		r, err := router.New(router.Config{Node: self, Graph: g, Capacity: 20, UnitBW: 1, HelloMiss: noDetector}, rec)
		if err != nil {
			t.Fatal(err)
		}
		var eps []transport.Endpoint
		for _, s := range srcs {
			src, err := mem.Attach(s)
			if err != nil {
				t.Fatal(err)
			}
			eps = append(eps, src)
		}
		for _, k := range []lsdb.ConnID{3, 1, 4, 2} {
			for i, s := range srcs {
				if err := eps[i].Send(self, proto.Setup{
					Conn: lsdb.ConnID(s)*10 + k, Channel: proto.Primary, Seq: 1,
					Route: []graph.NodeID{s, self, next}, Hop: 1,
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		waitFor(t, "12 primaries reserved", func() bool { return r.DB().TotalPrimeBW() == 12 })
		r.FailLink(next)
		rec.mu.Lock()
		got := append([]proto.Envelope(nil), rec.sent[:min(len(rec.sent), len(want))]...)
		rec.mu.Unlock()
		_ = r.Close()
		_ = mem.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d sent reports\n%v\nwant\n%v", run, got, want)
		}
	}
}

// TestHelloMissesInNeighbourOrder lets every adjacency of a five-leaf
// hub go stale at once, 20 times over on fresh routers. Each run must
// declare the links down in ascending neighbour order.
func TestHelloMissesInNeighbourOrder(t *testing.T) {
	const hub, leaves = graph.NodeID(0), 5
	var edges [][2]int
	for v := 1; v <= leaves; v++ {
		edges = append(edges, [2]int{0, v})
	}
	g, err := topology.FromEdgeList(leaves+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for v := 1; v <= leaves; v++ {
		l, _ := g.LinkBetween(hub, graph.NodeID(v))
		want = append(want, int(l))
	}
	for run := 0; run < 20; run++ {
		mem := transport.NewMem()
		ep, err := mem.Attach(hub)
		if err != nil {
			t.Fatal(err)
		}
		ring := telemetry.NewRing(64)
		r, err := router.New(router.Config{Node: hub, Graph: g, Capacity: 20, UnitBW: 1,
			HelloMiss: noDetector, Telemetry: telemetry.NewTracer(ring)}, ep)
		if err != nil {
			t.Fatal(err)
		}
		r.MissHellos()
		var got []int
		for _, e := range ring.Events() {
			if e.Kind == telemetry.EvLinkFail {
				got = append(got, e.Link)
			}
		}
		_ = r.Close()
		_ = mem.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d declared links %v down, want %v", run, got, want)
		}
	}
}

// TestHellosFromNonNeighboursChangeNothing sends a router on a 12-node
// ring hellos from 100 nodes that are not its neighbours, in and past the
// topology, and fails its link to a non-neighbour. It must still hold
// exactly one hello stamp per neighbour and no down mark.
func TestHellosFromNonNeighboursChangeNothing(t *testing.T) {
	g, err := topology.Ring(12)
	if err != nil {
		t.Fatal(err)
	}
	mem := transport.NewMem()
	defer mem.Close()
	ep, err := mem.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	// No hello tick inside the test: the neighbours stay silent, and their
	// stamps are the ones New made.
	r, err := router.New(router.Config{Node: 0, Graph: g, Capacity: 10, UnitBW: 1, HelloInterval: time.Hour}, ep)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var strangers []graph.NodeID
	for n := graph.NodeID(2); n <= 10; n++ {
		strangers = append(strangers, n)
	}
	for n := graph.NodeID(g.NumNodes()); len(strangers) < 100; n++ {
		strangers = append(strangers, n)
	}
	for _, n := range strangers {
		from, err := mem.Attach(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := from.Send(0, proto.Hello{From: n, Seq: 1}); err != nil {
			t.Fatal(err)
		}
	}
	r.FailLink(5)

	// The switchboard delivers in arrival order, so once neighbour 1's
	// hello is stamped every stranger's has been handled.
	before, _ := r.HelloState()
	nbr, err := mem.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := nbr.Send(0, proto.Hello{From: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "neighbour 1's hello", func() bool {
		stamps, _ := r.HelloState()
		return stamps[1].After(before[1])
	})
	stamps, down := r.HelloState()
	if len(stamps) != 2 || stamps[1].IsZero() || stamps[11].IsZero() {
		t.Errorf("%d hello stamps, want one for each of neighbours 1 and 11", len(stamps))
	}
	if len(down) != 0 {
		t.Errorf("down marks %v, want none", down)
	}
}

// TestEstablishOutsideTopologyIsAnError: a destination outside the
// topology, on either side, is refused with ErrNoRoute, and the router
// goes on establishing.
func TestEstablishOutsideTopologyIsAnError(t *testing.T) {
	g := theta(t)
	c := newCluster(t, g, 10)
	for i, dst := range []graph.NodeID{-1, graph.NodeID(g.NumNodes())} {
		if _, err := c.Router(0).Establish(lsdb.ConnID(i+1), dst); !errors.Is(err, router.ErrNoRoute) {
			t.Fatalf("establish to %d: err = %v, want ErrNoRoute", dst, err)
		}
	}
	if _, err := c.Router(0).Establish(3, 1); err != nil {
		t.Fatal(err)
	}
}

// TestDrainHeldLinkStaysDownUnderHellos: with NbrRecovery on, a hello
// revives a link declared failed but not one held down for the
// neighbour's drain, which stays advertised empty.
func TestDrainHeldLinkStaysDownUnderHellos(t *testing.T) {
	g, err := topology.Ring(12)
	if err != nil {
		t.Fatal(err)
	}
	mem := transport.NewMem()
	defer mem.Close()
	ep, err := mem.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	// No hello tick inside the test: only the hellos sent below arrive.
	r, err := router.New(router.Config{Node: 0, Graph: g, Capacity: 10, UnitBW: 1,
		HelloInterval: time.Hour, NbrRecovery: true}, ep)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.HoldLink(1)
	r.FailLink(11)
	// The switchboard delivers in arrival order, so once neighbour 11's
	// link is revived the drained neighbour 1's hello has been handled.
	for _, n := range []graph.NodeID{1, 11} {
		nbr, err := mem.Attach(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := nbr.Send(0, proto.Hello{From: n, Seq: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// A down mark is true for a held link, false for a failed one.
	waitFor(t, "the failed link revived", func() bool {
		_, down := r.HelloState()
		_, failed := down[11]
		return !failed
	})
	if _, down := r.HelloState(); !down[1] {
		t.Fatalf("down marks %v: the held link to 1 was revived", down)
	}
	l01, _ := g.LinkBetween(0, 1)
	if prim, backup, _ := r.View(l01); prim != 0 || backup != 0 {
		t.Fatalf("held link advertised with %d/%d free, want 0/0", prim, backup)
	}
}

// TestDrainReplacesBackupMakeBeforeBreak: a held link reports a
// connection with only a backup on it, and the source replaces that
// backup by one around the drained node, registered before the old one
// is released. The only replacement shares its last link with the old
// backup: that hop keeps the registration it holds instead of refusing a
// second backup of the connection, and the release spares it. The primary
// stays as it is.
func TestDrainReplacesBackupMakeBeforeBreak(t *testing.T) {
	// 0-1 is the primary; the backups 0-2-3-1 and 0-4-3-1 share 3-1.
	g, err := topology.FromEdgeList(5, [][2]int{{0, 1}, {0, 2}, {2, 3}, {3, 1}, {0, 4}, {4, 3}})
	if err != nil {
		t.Fatal(err)
	}
	var buf safeBuffer
	mem := transport.NewMem()
	c, err := router.NewCluster(router.Config{
		Graph:         g,
		Capacity:      10,
		UnitBW:        1,
		HelloInterval: 10 * time.Millisecond,
		HelloMiss:     noDetector,
		LSInterval:    20 * time.Millisecond,
		Logger:        slog.New(slog.NewTextHandler(&buf, nil)),
	}, mem)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.Close()
		_ = mem.Close()
	}()
	src := c.Router(0)
	info, err := src.Establish(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !nodesEqual(info.Primary, 0, 1) || len(info.Backup) != 4 {
		t.Fatalf("primary %v backup %v, want 0-1 and a 3-hop backup", info.Primary, info.Backup)
	}
	// The node on the backup drains: both its neighbours hold their links
	// to it.
	x := info.Backup[1]
	y := 6 - x // the other of 2 and 4
	c.Router(0).HoldLink(x)
	c.Router(3).HoldLink(x)
	waitFor(t, "the backup replaced", func() bool {
		got, ok := src.Conn(1)
		return ok && len(got.Backups) == 1 && nodesEqual(got.Backups[0], 0, y, 3, 1)
	})
	got, _ := src.Conn(1)
	if got.Switched || !nodesEqual(got.Primary, 0, 1) {
		t.Fatalf("primary %v switched=%v, want 0-1 untouched", got.Primary, got.Switched)
	}
	for _, hop := range [][2]graph.NodeID{{0, x}, {x, 3}, {0, y}, {y, 3}, {3, 1}} {
		l, _ := g.LinkBetween(hop[0], hop[1])
		db := c.Router(hop[0]).DB()
		want := hop[0] != x && hop[1] != x
		waitFor(t, fmt.Sprintf("backup registration on %d->%d = %v", hop[0], hop[1], want), func() bool {
			return db.HasBackup(1, l) == want
		})
	}
	if out := buf.String(); strings.Contains(out, "already has a backup") || strings.Contains(out, "replacement refused") {
		t.Fatalf("a hop refused the fresh backup:\n%s", out)
	}
	if err := src.Release(1); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, c)
}

func TestFailedLinkAdvertisedUnavailable(t *testing.T) {
	g := theta(t)
	c := newCluster(t, g, 10)
	c.FailEdge(0, 1)
	l01, _ := g.LinkBetween(0, 1)
	waitFor(t, "failed link advertised with zero bandwidth", func() bool {
		availPrim, availBackup, _ := c.Router(4).View(l01)
		return availPrim == 0 && availBackup == 0
	})
	// New connections route around the failure.
	info, err := c.Router(0).Establish(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nodesEqual(info.Primary, 0, 1) {
		t.Fatal("primary routed over the failed link")
	}
}

func TestClusterOverTCP(t *testing.T) {
	g := theta(t)
	addrs := make(map[graph.NodeID]string, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		addrs[graph.NodeID(n)] = "127.0.0.1:0"
	}
	mesh := transport.NewTCPMesh(addrs)
	c, err := router.NewCluster(router.Config{
		Graph:         g,
		Capacity:      10,
		UnitBW:        1,
		HelloInterval: 10 * time.Millisecond,
		LSInterval:    20 * time.Millisecond,
	}, mesh)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.Close()
		_ = mesh.Close()
	}()

	info, err := c.Router(0).Establish(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !nodesEqual(info.Primary, 0, 1) || len(info.Backup) == 0 {
		t.Fatalf("info = %+v", info)
	}
	c.FailEdge(0, 1)
	waitFor(t, "switch over TCP", func() bool {
		got, ok := c.Router(0).Conn(1)
		return ok && got.Switched
	})
}

func TestRouterCloseIdempotent(t *testing.T) {
	c := newCluster(t, theta(t), 10)
	r := c.Router(0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Establish(1, 1); !errors.Is(err, router.ErrClosed) {
		t.Fatalf("establish after close: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	mem := transport.NewMem()
	defer mem.Close()
	if _, err := router.New(router.Config{}, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	ep, _ := mem.Attach(0)
	if _, err := router.New(router.Config{Graph: theta(t), Node: 99}, ep); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

// TestChurn drives many establish/release cycles from several sources
// concurrently and verifies the cluster converges to a clean state.
func TestChurn(t *testing.T) {
	g := theta(t)
	c := newCluster(t, g, 20)
	done := make(chan error, 3)
	for src := 0; src < 3; src++ {
		go func(src int) {
			var err error
			defer func() { done <- err }()
			r := c.Router(graph.NodeID(src))
			for i := 0; i < 15; i++ {
				id := lsdb.ConnID(src*1000 + i)
				dst := graph.NodeID((src + 1 + i%4) % 5)
				if dst == graph.NodeID(src) {
					continue
				}
				if _, e := r.Establish(id, dst); e != nil {
					continue // saturation rejections are fine
				}
				if e := r.Release(id); e != nil {
					err = e
					return
				}
			}
		}(src)
	}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	waitDrained(t, c)
}

// TestSwitchedThenReleasedLeavesCleanState is the regression test for the
// full lifecycle: establish, fail, switch, release.
func TestSwitchedThenReleasedLeavesCleanState(t *testing.T) {
	g := theta(t)
	c := newCluster(t, g, 10)
	for id := lsdb.ConnID(1); id <= 3; id++ {
		if _, err := c.Router(0).Establish(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	c.FailEdge(0, 1)
	waitFor(t, "all switched or dead", func() bool {
		for id := lsdb.ConnID(1); id <= 3; id++ {
			info, ok := c.Router(0).Conn(id)
			if !ok || (!info.Switched && !info.Dead) {
				return false
			}
		}
		return true
	})
	for id := lsdb.ConnID(1); id <= 3; id++ {
		info, _ := c.Router(0).Conn(id)
		if info.Dead {
			continue
		}
		if err := c.Router(0).Release(id); err != nil {
			t.Fatal(err)
		}
	}
	waitDrained(t, c)
}

func TestLoggerReceivesProtocolEvents(t *testing.T) {
	g := theta(t)
	var buf safeBuffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	mem := transport.NewMem()
	c, err := router.NewCluster(router.Config{
		Graph:         g,
		Capacity:      10,
		UnitBW:        1,
		HelloInterval: 10 * time.Millisecond,
		LSInterval:    20 * time.Millisecond,
		Logger:        logger,
	}, mem)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.Close()
		_ = mem.Close()
	}()
	if _, err := c.Router(0).Establish(1, 1); err != nil {
		t.Fatal(err)
	}
	c.FailEdge(0, 1)
	waitFor(t, "switch logged", func() bool {
		out := buf.String()
		return strings.Contains(out, "connection established") &&
			strings.Contains(out, "link failure detected") &&
			strings.Contains(out, "channel switched to backup")
	})
	if !strings.Contains(buf.String(), "node=0") {
		t.Fatal("node attribute missing from log output")
	}
}

// safeBuffer is a mutex-guarded bytes.Buffer for concurrent log writes.
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestMultiBackupEstablish(t *testing.T) {
	g := theta(t)
	mem := transport.NewMem()
	c, err := router.NewCluster(router.Config{
		Graph:         g,
		Capacity:      10,
		UnitBW:        1,
		Backups:       2,
		HelloInterval: 10 * time.Millisecond,
		LSInterval:    20 * time.Millisecond,
	}, mem)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.Close()
		_ = mem.Close()
	}()
	info, err := c.Router(0).Establish(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Backups) != 2 {
		t.Fatalf("backups = %v", info.Backups)
	}
	if !nodesEqual(info.Backups[0], 0, 2, 1) || !nodesEqual(info.Backups[1], 0, 3, 4, 1) {
		t.Fatalf("backups = %v", info.Backups)
	}

	// Fail both the primary and the first backup: the second must win.
	c.FailEdge(0, 2)
	c.FailEdge(0, 1)
	waitFor(t, "switch to second backup", func() bool {
		got, ok := c.Router(0).Conn(1)
		return ok && got.Switched && nodesEqual(got.Primary, 0, 3, 4, 1)
	})
	// Cleanup leaves no reservations.
	if err := c.Router(0).Release(1); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, c)
}

// TestSwitchKeepsSurvivingBackup pins the re-protection of a survivor:
// after the switch onto the first backup, the second is registered again
// under the new primary's LSET, so its links' APLVs count the new
// primary's links and no longer the failed one's.
func TestSwitchKeepsSurvivingBackup(t *testing.T) {
	g := theta(t)
	c := newBackupsCluster(t, g, 2)
	if _, err := c.Router(0).Establish(1, 1); err != nil {
		t.Fatal(err)
	}
	c.FailEdge(0, 1)
	waitFor(t, "switched with surviving backup", func() bool {
		got, ok := c.Router(0).Conn(1)
		return ok && got.Switched &&
			nodesEqual(got.Primary, 0, 2, 1) &&
			len(got.Backups) == 1 && nodesEqual(got.Backups[0], 0, 3, 4, 1)
	})
	l01, _ := g.LinkBetween(0, 1)
	l02, _ := g.LinkBetween(0, 2)
	l21, _ := g.LinkBetween(2, 1)
	for _, hop := range [][2]graph.NodeID{{0, 3}, {3, 4}, {4, 1}} {
		l, _ := g.LinkBetween(hop[0], hop[1])
		db := c.Router(hop[0]).DB()
		waitFor(t, fmt.Sprintf("survivor on %d->%d under the new LSET", hop[0], hop[1]), func() bool {
			return db.HasBackup(1, l) && db.APLVAt(l, l02) == 1 && db.APLVAt(l, l21) == 1 && db.APLVAt(l, l01) == 0
		})
	}
	if err := c.Router(0).Release(1); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, c)
}

// TestSwitchKeepsConnectionProtected pins the top-up after a switch: a
// connection with one backup gets a fresh one routed for its new primary,
// and when that primary fails too it switches again onto the fresh one.
func TestSwitchKeepsConnectionProtected(t *testing.T) {
	g := theta(t)
	c := newBackupsCluster(t, g, 1)
	src := c.Router(0)
	if _, err := src.Establish(1, 1); err != nil {
		t.Fatal(err)
	}
	c.FailEdge(0, 1)
	waitFor(t, "switched and protected again", func() bool {
		got, ok := src.Conn(1)
		return ok && got.Switched && !got.Dead && nodesEqual(got.Primary, 0, 2, 1) &&
			len(got.Backups) == 1 && nodesEqual(got.Backups[0], 0, 3, 4, 1)
	})
	l34, _ := g.LinkBetween(3, 4)
	l02, _ := g.LinkBetween(0, 2)
	waitFor(t, "fresh backup registered under the new LSET", func() bool {
		return c.Router(3).DB().APLVAt(l34, l02) == 1
	})

	c.FailEdge(0, 2)
	waitFor(t, "switched again onto the fresh backup", func() bool {
		got, ok := src.Conn(1)
		return ok && !got.Dead && nodesEqual(got.Primary, 0, 3, 4, 1) && len(got.Backups) == 0
	})
	if err := src.Release(1); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, c)
}

// TestSwitchKeepsNothingAfterRelease releases each connection the moment
// its activation is published, while its re-protection is still
// signalling: the switch must release what it ends with.
func TestSwitchKeepsNothingAfterRelease(t *testing.T) {
	c := newBackupsCluster(t, theta(t), 2)
	src := c.Router(0)
	for id := lsdb.ConnID(1); id <= 3; id++ {
		if _, err := src.Establish(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	c.FailEdge(0, 1)
	for id := lsdb.ConnID(1); id <= 3; id++ {
		// Spin, not sleep: the re-protection takes one round trip.
		deadline := time.Now().Add(5 * time.Second)
		for info, _ := src.Conn(id); !info.Switched && !info.Dead; info, _ = src.Conn(id) {
			if time.Now().After(deadline) {
				t.Fatalf("conn %d neither switched nor dead", id)
			}
			runtime.Gosched()
		}
		if err := src.Release(id); err != nil {
			t.Fatal(err)
		}
	}
	waitDrained(t, c)
}

// newBackupsCluster is newCluster with k backups per connection and no
// hello-based detection: failures are injected.
func newBackupsCluster(t *testing.T, g *graph.Graph, k int) *router.Cluster {
	t.Helper()
	mem := transport.NewMem()
	c, err := router.NewCluster(router.Config{
		Graph:         g,
		Capacity:      10,
		UnitBW:        1,
		Backups:       k,
		HelloInterval: 10 * time.Millisecond,
		HelloMiss:     noDetector,
		LSInterval:    20 * time.Millisecond,
	}, mem)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		_ = mem.Close()
	})
	return c
}

// lossy wraps mem in an injector that drops every message but hellos
// with probability drop, drawing from per-sender-receiver streams seeded
// by seed.
func lossy(mem *transport.Mem, drop float64, seed int64) *faultinject.Injector {
	return faultinject.New(&faultinject.Schedule{
		Seed:  seed,
		Links: []faultinject.LinkRule{{From: -1, To: -1, Drop: drop}},
	}, mem)
}

func TestEstablishTimesOutOnLostSignalling(t *testing.T) {
	// Full signalling loss (hellos still flow): the setup round trip
	// times out and the caller gets ErrTimeout with nothing leaked
	// locally (remote partial state cannot be rolled back when teardowns
	// are lost too — that is what the timeout models).
	g := theta(t)
	mem := transport.NewMem()
	c, err := router.NewCluster(router.Config{
		Graph:         g,
		Capacity:      10,
		UnitBW:        1,
		HelloInterval: 10 * time.Millisecond,
		LSInterval:    20 * time.Millisecond,
		SetupTimeout:  100 * time.Millisecond,
	}, lossy(mem, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.Close()
		_ = mem.Close()
	}()
	_, err = c.Router(0).Establish(1, 1)
	if !errors.Is(err, router.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if _, ok := c.Router(0).Conn(1); ok {
		t.Fatal("failed connection recorded")
	}
}

func TestEstablishSurvivesModerateLoss(t *testing.T) {
	// With moderate loss some setups fail by timeout, but retries under
	// fresh IDs eventually succeed, and nothing panics or wedges.
	g := theta(t)
	mem := transport.NewMem()
	inj := lossy(mem, 0.2, 11)
	c, err := router.NewCluster(router.Config{
		Graph:         g,
		Capacity:      10,
		UnitBW:        1,
		HelloInterval: 10 * time.Millisecond,
		HelloMiss:     noDetector,
		LSInterval:    20 * time.Millisecond,
		SetupTimeout:  150 * time.Millisecond,
	}, inj)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.Close()
		_ = mem.Close()
	}()
	succeeded := 0
	for id := lsdb.ConnID(1); id <= 20; id++ {
		if _, err := c.Router(0).Establish(id, 1); err == nil {
			succeeded++
			_ = c.Router(0).Release(id)
		}
	}
	if succeeded == 0 {
		t.Fatal("no establishment succeeded under 20% loss")
	}
	if inj.Stats().Drops == 0 {
		t.Fatal("loss injection inactive")
	}
}

// TestHostileLinkAdvertIsDropped feeds a router link summaries whose
// link IDs lie outside the topology on both sides (LinkAdvert.Link is a
// signed varint on the wire), from an origin outside it too. The router
// must drop and count them, keep its view, pass nothing on to its
// neighbours, and keep serving; a router that has heard only such
// adverts is not synced. It pins the intake rule (DESIGN.md, link-state
// adverts) on a live router.
func TestHostileLinkAdvertIsDropped(t *testing.T) {
	g := theta(t)
	mem := transport.NewMem()
	events := telemetry.NewBuffer()
	c, err := router.NewCluster(router.Config{
		Graph:         g,
		Capacity:      10,
		UnitBW:        1,
		HelloInterval: 10 * time.Millisecond,
		HelloMiss:     noDetector,
		LSInterval:    20 * time.Millisecond,
		SetupTimeout:  3 * time.Second,
		Telemetry:     telemetry.NewTracer(events),
	}, mem)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		_ = mem.Close()
	})
	attacker, err := mem.Attach(graph.NodeID(50))
	if err != nil {
		t.Fatal(err)
	}

	const target = 4
	view := func() (out [][3]int) {
		for l := 0; l < g.NumLinks(); l++ {
			p, b, n := c.Router(target).View(graph.LinkID(l))
			out = append(out, [3]int{p, b, n})
		}
		return out
	}
	before := view()

	n := graph.LinkID(g.NumLinks())
	hostile := proto.LSUpdate{Origin: 60, Seq: 1, Links: []proto.LinkAdvert{
		{Link: -1, AvailPrim: 1, AvailBackup: 1, Norm: 9, CV: []byte{0xff}},
		{Link: n, AvailPrim: 1, AvailBackup: 1, Norm: 9, CV: []byte{0xff}},
		{Link: n + 1000, AvailPrim: 1, AvailBackup: 1, Norm: 9},
	}}
	if err := attacker.Send(target, hostile); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "dropped adverts counted at the target", func() bool {
		for _, e := range events.Events() {
			if e.Kind == telemetry.EvLSUpdate && e.Reason == "out-of-range" && e.Node == target {
				if e.N != len(hostile.Links) {
					t.Fatalf("dropped %d adverts, want %d", e.N, len(hostile.Links))
				}
				return true
			}
		}
		return false
	})
	if after := view(); !reflect.DeepEqual(before, after) {
		t.Fatalf("view changed:\nbefore %v\nafter  %v", before, after)
	}
	// The establishment's signalling reaches both of the target's
	// neighbours behind anything the target sent them before it.
	if _, err := c.Router(target).Establish(1, 1); err != nil {
		t.Fatalf("router stopped serving after the hostile advert: %v", err)
	}
	for _, e := range events.Events() {
		if e.Kind == telemetry.EvLSUpdate && e.Reason == "out-of-range" && e.Node != target {
			t.Fatalf("router %d received the hostile advert from the target", e.Node)
		}
	}

	// A lone router hearing only adverts from origins outside the
	// topology, on both sides, stays un-synced.
	loneMem := transport.NewMem()
	t.Cleanup(func() { _ = loneMem.Close() })
	loneEvents := telemetry.NewBuffer()
	ep, err := loneMem.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	lone, err := router.New(router.Config{
		Node: 0, Graph: g, Capacity: 10, UnitBW: 1,
		HelloMiss: noDetector, Telemetry: telemetry.NewTracer(loneEvents),
	}, ep)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lone.Close() })
	loneAttacker, err := loneMem.Attach(graph.NodeID(50))
	if err != nil {
		t.Fatal(err)
	}
	for _, origin := range []graph.NodeID{-1, graph.NodeID(g.NumNodes())} {
		hostile.Origin = origin
		if err := loneAttacker.Send(0, hostile); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "both hostile origins dropped at the lone router", func() bool {
		n := 0
		for _, e := range loneEvents.Events() {
			if e.Kind == telemetry.EvLSUpdate && e.Reason == "out-of-range" {
				n++
			}
		}
		return n == 2
	})
	if lone.Synced() {
		t.Fatal("a router that heard only hostile adverts reports synced")
	}
}

// TestHostileSetupLSETIsRejected sends a router backup-register packets
// whose PrimaryLSET names links outside the topology on both sides
// (LSET entries are signed varints on the wire). The hop must answer with
// an ordinary rejection and register nothing — an accepted entry would
// index past the Conflict Vector when the next advertisement is built —
// then keep advertising and keep serving.
func TestHostileSetupLSETIsRejected(t *testing.T) {
	g := theta(t)
	mem := transport.NewMem()
	events := telemetry.NewBuffer()
	c, err := router.NewCluster(router.Config{
		Graph:         g,
		Capacity:      10,
		UnitBW:        1,
		HelloInterval: 10 * time.Millisecond,
		HelloMiss:     noDetector,
		LSInterval:    20 * time.Millisecond,
		SetupTimeout:  3 * time.Second,
		Telemetry:     telemetry.NewTracer(events),
	}, mem)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		_ = mem.Close()
	})
	const (
		attackerID = graph.NodeID(50)
		target     = graph.NodeID(0)
		next       = graph.NodeID(1)
	)
	attacker, err := mem.Attach(attackerID)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := g.LinkBetween(target, next)
	db := c.Router(target).DB()

	n := graph.LinkID(g.NumLinks())
	for i, lset := range [][]graph.LinkID{{n + 5}, {0, -1}, {n}} {
		conn := lsdb.ConnID(700 + i)
		// The attacker names itself as the route's source so the hop's
		// answer comes back to it.
		if err := attacker.Send(target, proto.Setup{
			Conn: conn, Channel: proto.Backup, Seq: 1,
			Route: []graph.NodeID{attackerID, target, next}, Hop: 1,
			PrimaryLSET: lset,
		}); err != nil {
			t.Fatal(err)
		}
		select {
		case env := <-attacker.Recv():
			res, ok := env.Msg.(proto.SetupResult)
			if !ok || res.Conn != conn || res.OK || !strings.Contains(res.Reason, "out of range") {
				t.Fatalf("LSET %v: got %#v, want an out-of-range rejection", lset, env.Msg)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("LSET %v: no answer; the router is gone", lset)
		}
		if db.HasBackup(conn, out) {
			t.Fatalf("LSET %v: rejected registration left on link %d", lset, out)
		}
	}
	if db.NumBackupsOn(out) != 0 || db.APLVNorm(out) != 0 || db.BackupOps() != 0 {
		t.Fatalf("hostile setups mutated link %d: backups=%d norm=%d ops=%d",
			out, db.NumBackupsOn(out), db.APLVNorm(out), db.BackupOps())
	}

	// Force advertisements: each one serialises every local link's CV.
	adverts := func() (count int) {
		for _, e := range events.Events() {
			if e.Kind == telemetry.EvLSUpdate && e.Node == int(target) && e.Reason == "" {
				count++
			}
		}
		return count
	}
	seen := adverts()
	waitFor(t, "two more advertisements from the target", func() bool { return adverts() >= seen+2 })
	if _, err := c.Router(target).Establish(1, next); err != nil {
		t.Fatalf("router stopped serving after the hostile setups: %v", err)
	}
}

// waitDrained waits until no router of c holds any reservation.
func waitDrained(t *testing.T, c *router.Cluster) {
	t.Helper()
	waitFor(t, "all reservations released", func() bool {
		for n := 0; n < c.Size(); n++ {
			db := c.Router(graph.NodeID(n)).DB()
			if db.TotalPrimeBW() != 0 || db.TotalSpareBW() != 0 {
				return false
			}
		}
		return true
	})
}

// TestActivateOverSharedLink pins the shared-link activation rule: node 0
// reaches the rest of the network over the bridge 0-1 only, so the backup
// of 0 -> 3 overlaps its primary there (the Q "last resort"). A failure
// past the bridge spares the backup, so the connection must switch — the
// bridge hop keeps the reservation it already holds — and the
// reconfiguration sweep of the old primary must leave that reservation
// alone. The only backup left to route is the new primary itself, the
// last resort again, registered under the new LSET.
func TestActivateOverSharedLink(t *testing.T) {
	g, err := topology.FromEdgeList(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {1, 4}, {4, 3}})
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, g, 10)
	src := c.Router(0)
	info, err := src.Establish(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !nodesEqual(info.Primary, 0, 1, 2, 3) || !nodesEqual(info.Backup, 0, 1, 4, 3) {
		t.Fatalf("primary %v backup %v, want [0 1 2 3] and [0 1 4 3]", info.Primary, info.Backup)
	}

	c.Router(1).FailLink(2)
	waitFor(t, "switched or dead", func() bool {
		info, _ = src.Conn(1)
		return info.Switched || info.Dead
	})
	if info.Dead || !nodesEqual(info.Primary, 0, 1, 4, 3) {
		t.Fatalf("after the failure: %+v, want switched onto [0 1 4 3]", info)
	}
	l12, _ := g.LinkBetween(1, 2)
	l23, _ := g.LinkBetween(2, 3)
	waitFor(t, "old primary's tail released", func() bool {
		return c.Router(1).DB().PrimeBW(l12) == 0 && c.Router(2).DB().PrimeBW(l23) == 0
	})
	l01, _ := g.LinkBetween(0, 1)
	l14, _ := g.LinkBetween(1, 4)
	waitFor(t, "re-protected on the last resort", func() bool {
		info, _ = src.Conn(1)
		return len(info.Backups) == 1 && nodesEqual(info.Backups[0], 0, 1, 4, 3)
	})
	db := src.DB()
	if p, b := db.PrimeBW(l01), db.NumBackupsOn(l01); p != 1 || b != 1 || db.APLVAt(l01, l12) != 0 || db.APLVAt(l01, l14) != 1 {
		t.Fatalf("bridge 0->1 after the sweep: prime=%d backups=%d, APLV[1->2]=%d APLV[1->4]=%d, want 1, 1, 0, 1",
			p, b, db.APLVAt(l01, l12), db.APLVAt(l01, l14))
	}
	if err := src.Release(1); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, c)
}

// TestConcurrentDuplicateEstablish pins the ID-claim rule: of two
// concurrent requests for one ID exactly one is signalled; the other is
// refused at once instead of sharing (and corrupting) its round trips.
func TestConcurrentDuplicateEstablish(t *testing.T) {
	c := newCluster(t, theta(t), 10)
	src := c.Router(0)
	for id := lsdb.ConnID(1); id <= 5; id++ {
		var (
			wg    sync.WaitGroup
			start = make(chan struct{})
			errs  [2]error
		)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, errs[i] = src.Establish(id, 1)
			}()
		}
		begun := time.Now()
		close(start)
		wg.Wait()
		if errs[0] != nil {
			errs[0], errs[1] = errs[1], errs[0]
		}
		if errs[0] != nil || errs[1] == nil || !strings.Contains(errs[1].Error(), "already exists") {
			t.Fatalf("conn %d: errors %v, want one success and one \"already exists\"", id, errs)
		}
		if d := time.Since(begun); d > time.Second {
			t.Fatalf("conn %d: the refused request took %v, it must not wait out a timeout", id, d)
		}
		if err := src.Release(id); err != nil {
			t.Fatal(err)
		}
		waitDrained(t, c)
	}
}
