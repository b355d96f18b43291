package routing_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/routing"
	"github.com/rtcl/drtp/internal/topology"
)

func TestWithBackupCountRoutesDisjointBackups(t *testing.T) {
	net := theta(t)
	scheme := routing.NewDLSR(routing.WithBackupCount(2))
	route, err := scheme.Route(net, drtp.Request{ID: 1, Src: 0, Dst: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(route.Backups) != 2 {
		t.Fatalf("backups = %d, want 2", len(route.Backups))
	}
	b1, b2 := route.Backups[0], route.Backups[1]
	if b1.Hops() != 2 || b2.Hops() != 3 {
		t.Fatalf("backups = %s / %s", b1.Format(net.Graph()), b2.Format(net.Graph()))
	}
	if b1.SharedLinks(b2) != 0 {
		t.Fatal("backups overlap each other")
	}
	for _, b := range route.Backups {
		if b.SharedLinks(route.Primary) != 0 {
			t.Fatal("backup overlaps primary")
		}
	}
}

func TestWithBackupCountStopsWhenNoDisjointRoute(t *testing.T) {
	// Theta has exactly three parallel routes; asking for 3 backups can
	// only yield 2 (the third would have to reuse links).
	net := theta(t)
	route, err := routing.NewDLSR(routing.WithBackupCount(3)).Route(net, drtp.Request{ID: 1, Src: 0, Dst: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(route.Backups) != 2 {
		t.Fatalf("backups = %d, want 2 (no third disjoint route exists)", len(route.Backups))
	}
}

func TestWithBackupCountDefaultsToOne(t *testing.T) {
	net := theta(t)
	route, err := routing.NewDLSR(routing.WithBackupCount(0)).Route(net, drtp.Request{ID: 1, Src: 0, Dst: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(route.Backups) != 1 {
		t.Fatalf("backups = %d, want 1", len(route.Backups))
	}
}

func TestMultiBackupEndToEnd(t *testing.T) {
	// Establish with two backups, fail the primary and the first backup
	// simultaneously: the second backup recovers the connection.
	net := theta(t)
	mgr := drtp.NewManager(net, routing.NewDLSR(routing.WithBackupCount(2)))
	conn := establish(t, mgr, 1, 0, 1)
	if len(conn.Backups) != 2 {
		t.Fatalf("backups = %d", len(conn.Backups))
	}
	l01, _ := net.Graph().LinkBetween(0, 1)
	l02, _ := net.Graph().LinkBetween(0, 2)
	out := mgr.EvaluateMultiLinkFailure([]graph.LinkID{l01, l02})
	if out.Affected != 1 || out.Recovered != 1 {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestQoSBoundRejectsTightPrimary(t *testing.T) {
	// Theta: 0 -> 4 is 2 hops minimum (0-3-4). A 1-hop bound rejects.
	net := theta(t)
	_, err := routing.NewDLSR().Route(net, drtp.Request{ID: 1, Src: 0, Dst: 4, MaxHops: 1})
	if err == nil {
		t.Fatal("over-tight bound accepted")
	}
	route, err := routing.NewDLSR().Route(net, drtp.Request{ID: 1, Src: 0, Dst: 4, MaxHops: 2})
	if err != nil {
		t.Fatal(err)
	}
	if route.Primary.Hops() != 2 {
		t.Fatalf("primary hops = %d", route.Primary.Hops())
	}
}

func TestQoSBoundConstrainsBackup(t *testing.T) {
	// For 0 -> 1 the conflict-free detour after one established conn is 3
	// hops (via 3-4); with MaxHops 2 the second conn's backup must stay
	// within 2 hops and therefore share the conflicted via-2 route.
	net := theta(t)
	mgr := drtp.NewManager(net, routing.NewDLSR())
	establish(t, mgr, 1, 0, 1)
	route, err := routing.NewDLSR().Route(net, drtp.Request{ID: 2, Src: 0, Dst: 1, MaxHops: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := backupOf(route)
	if b.Hops() > 2 {
		t.Fatalf("backup hops = %d exceeds bound", b.Hops())
	}
	// Unbounded, the same request detours to 3 hops.
	route, err = routing.NewDLSR().Route(net, drtp.Request{ID: 3, Src: 0, Dst: 1})
	if err != nil {
		t.Fatal(err)
	}
	if backupOf(route).Hops() != 3 {
		t.Fatalf("unbounded backup hops = %d", backupOf(route).Hops())
	}
}

// TestSequentialVsJointDisjointnessProperty cross-validates the two
// routing strategies on random unloaded networks: if Bhandari finds no
// link-disjoint pair at all, the sequential backup must overlap its
// primary; and if the sequential backup is disjoint, Bhandari must find a
// pair too.
func TestSequentialVsJointDisjointnessProperty(t *testing.T) {
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 6 + r.Intn(20)
		g, err := topology.Waxman(topology.WaxmanConfig{
			Nodes: n, AvgDegree: 3, Seed: seed,
		})
		if err != nil {
			return true
		}
		net, err := drtp.NewNetwork(g, 50, 1)
		if err != nil {
			return false
		}
		src := graph.NodeID(r.Intn(n))
		dst := graph.NodeID(r.Intn(n))
		if src == dst {
			return true
		}
		route, err := routing.NewDLSR().Route(net, drtp.Request{ID: 1, Src: src, Dst: dst})
		if err != nil {
			return false // connected graph: primary must exist
		}
		b := backupOf(route)
		if b.Empty() {
			return false // Q semantics always yield some backup
		}
		_, _, pairExists := graph.DisjointPair(g, src, dst, graph.UnitCost)
		sequentialDisjoint := b.SharedLinks(route.Primary) == 0
		// Sequential disjoint => a pair exists (namely the one it found);
		// equivalently, no pair at all => the sequential backup overlaps.
		if sequentialDisjoint && !pairExists {
			t.Logf("seed %d: sequential found a disjoint pair Bhandari missed", seed)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestJointName(t *testing.T) {
	if routing.NewJoint().Name() != "Joint" {
		t.Fatal("Joint name wrong")
	}
}

func TestRouteBackupsForRestoresProtection(t *testing.T) {
	// After a destructive switch, D-LSR's BackupRouter computes fresh
	// disjoint backups for the new primary.
	net := theta(t)
	scheme := routing.NewDLSR(routing.WithBackupCount(2))
	primary, _ := new(graph.Scratch).ShortestPath(net.Graph(), 0, 1, graph.UnitCost)
	fresh := scheme.RouteBackupsFor(net, drtp.Request{ID: 9, Src: 0, Dst: 1}, primary, nil)
	if len(fresh) != 2 {
		t.Fatalf("restored backups = %d, want 2", len(fresh))
	}
	for _, b := range fresh {
		if b.SharedLinks(primary) != 0 {
			t.Fatal("restored backup overlaps primary")
		}
	}
	// Topped-up request: one existing backup leaves room for one more.
	existing := fresh[:1]
	more := scheme.RouteBackupsFor(net, drtp.Request{ID: 9, Src: 0, Dst: 1}, primary, existing)
	if len(more) != 1 {
		t.Fatalf("top-up backups = %d, want 1", len(more))
	}
	if more[0].SharedLinks(existing[0]) != 0 {
		t.Fatal("top-up overlaps existing backup")
	}
	// Already full: nothing more.
	if extra := scheme.RouteBackupsFor(net, drtp.Request{ID: 9, Src: 0, Dst: 1}, primary, fresh); extra != nil {
		t.Fatalf("over-provisioned: %v", extra)
	}
}
