package routing_test

import (
	"reflect"
	"testing"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/routing"
	"github.com/rtcl/drtp/internal/topology"
)

// theta is the 5-node network with three parallel routes 0 -> 1:
// direct (1 hop), via 2 (2 hops), via 3-4 (3 hops).
func theta(t *testing.T) *drtp.Network {
	t.Helper()
	g, err := topology.FromEdgeList(5, [][2]int{{0, 1}, {0, 2}, {2, 1}, {0, 3}, {3, 4}, {4, 1}})
	if err != nil {
		t.Fatal(err)
	}
	net, err := drtp.NewNetwork(g, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func establish(t *testing.T, mgr *drtp.Manager, id drtp.ConnID, src, dst graph.NodeID) *drtp.Connection {
	t.Helper()
	conn, err := mgr.Establish(drtp.Request{ID: id, Src: src, Dst: dst})
	if err != nil {
		t.Fatalf("establish %d: %v", id, err)
	}
	return conn
}

func TestSchemeNames(t *testing.T) {
	tests := []struct {
		scheme drtp.Scheme
		want   string
	}{
		{routing.NewDLSR(), "D-LSR"},
		{routing.NewPLSR(), "P-LSR"},
		{routing.NewMinHopDisjoint(), "MinHop"},
		{routing.NewNoBackup(), "NoBackup"},
		{routing.NewRandom(1), "Random"},
	}
	for _, tt := range tests {
		if got := tt.scheme.Name(); got != tt.want {
			t.Errorf("Name = %q, want %q", got, tt.want)
		}
	}
}

func TestLinkStatePrimaryIsMinHop(t *testing.T) {
	for _, scheme := range []drtp.Scheme{routing.NewDLSR(), routing.NewPLSR(), routing.NewMinHopDisjoint()} {
		net := theta(t)
		route, err := scheme.Route(net, drtp.Request{ID: 1, Src: 0, Dst: 1})
		if err != nil {
			t.Fatalf("%s: %v", scheme.Name(), err)
		}
		if route.Primary.Hops() != 1 {
			t.Errorf("%s: primary hops = %d, want 1", scheme.Name(), route.Primary.Hops())
		}
	}
}

func TestBackupAvoidsOwnPrimary(t *testing.T) {
	for _, scheme := range []drtp.Scheme{routing.NewDLSR(), routing.NewPLSR(), routing.NewMinHopDisjoint(), routing.NewRandom(7)} {
		net := theta(t)
		route, err := scheme.Route(net, drtp.Request{ID: 1, Src: 0, Dst: 1})
		if err != nil {
			t.Fatalf("%s: %v", scheme.Name(), err)
		}
		if backupOf(route).Empty() {
			t.Fatalf("%s: no backup", scheme.Name())
		}
		if backupOf(route).SharedLinks(route.Primary) != 0 {
			t.Errorf("%s: backup %s overlaps primary %s", scheme.Name(),
				backupOf(route).Format(net.Graph()), route.Primary.Format(net.Graph()))
		}
	}
}

func TestBackupEpsilonPicksShortest(t *testing.T) {
	// With no conflicts anywhere, the epsilon term must select the
	// 2-hop backup via node 2, not the 3-hop route via 3-4.
	net := theta(t)
	route, err := routing.NewDLSR().Route(net, drtp.Request{ID: 1, Src: 0, Dst: 1})
	if err != nil {
		t.Fatal(err)
	}
	if backupOf(route).Hops() != 2 {
		t.Fatalf("backup = %s, want the 2-hop route", backupOf(route).Format(net.Graph()))
	}
}

// TestDLSRAvoidsConflicts is the Figure 3 situation: conn 1 and conn 2
// have overlapping primaries (the direct link 0->1); conn 1's backup runs
// via node 2. D-LSR must route conn 2's backup around the conflicted
// via-2 route even though the conflict-free route via 3-4 is longer.
func TestDLSRAvoidsConflicts(t *testing.T) {
	net := theta(t)
	mgr := drtp.NewManager(net, routing.NewDLSR())
	c1 := establish(t, mgr, 1, 0, 1)
	if c1.Backup().Hops() != 2 {
		t.Fatalf("conn1 backup = %s", c1.Backup().Format(net.Graph()))
	}
	c2 := establish(t, mgr, 2, 0, 1)
	if c2.Primary.Hops() != 1 {
		t.Fatalf("conn2 primary = %s", c2.Primary.Format(net.Graph()))
	}
	if c2.Backup().Hops() != 3 {
		t.Fatalf("conn2 backup = %s, want the disjoint 3-hop route",
			c2.Backup().Format(net.Graph()))
	}
	if c2.Backup().SharedLinks(c1.Backup()) != 0 {
		t.Fatal("conn2 backup conflicts with conn1 backup")
	}
	// The two backups can now both activate on a 0->1 failure.
	l01, _ := net.Graph().LinkBetween(0, 1)
	out := mgr.EvaluateLinkFailure(l01)
	if out.Affected != 2 || out.Recovered != 2 {
		t.Fatalf("outcome = %+v", out)
	}
}

// TestPLSRAvoidsLoadedLinks mirrors the D-LSR test via the scalar norm:
// P-LSR cannot see conflict positions, but the via-2 route has a positive
// ‖APLV‖ and the via-3-4 route has zero, so it also detours.
func TestPLSRAvoidsLoadedLinks(t *testing.T) {
	net := theta(t)
	mgr := drtp.NewManager(net, routing.NewPLSR())
	establish(t, mgr, 1, 0, 1)
	c2 := establish(t, mgr, 2, 0, 1)
	if c2.Backup().Hops() != 3 {
		t.Fatalf("conn2 backup = %s, want the conflict-free 3-hop route",
			c2.Backup().Format(net.Graph()))
	}
}

// TestPLSRThenDLSROnOneNetwork routes one network by P-LSR, then D-LSR,
// then P-LSR again. P-LSR reads its metric off the network's snapshot in
// place and leaves the shared selector pointing at that column; D-LSR
// computes its own, and must not do so into whatever the selector last
// held — the snapshot is patched, not refilled, so a column D-LSR cleared
// would stay cleared.
func TestPLSRThenDLSROnOneNetwork(t *testing.T) {
	net := theta(t)
	plsr, dlsr := routing.NewPLSR(), routing.NewDLSR()
	establish(t, drtp.NewManager(net, plsr), 1, 0, 1) // backup via 2: ‖APLV‖₁ = 1 on 0->2 and 2->1
	wantDetour := func(when string) {
		t.Helper()
		route, err := plsr.Route(net, drtp.Request{ID: 2, Src: 0, Dst: 1})
		if err != nil {
			t.Fatal(err)
		}
		if backupOf(route).Hops() != 3 {
			t.Fatalf("%s: P-LSR backup = %s, want the 3-hop route around the loaded links", when, backupOf(route).Format(net.Graph()))
		}
	}
	wantDetour("before D-LSR")
	// A primary on 0->2 conflicts with nothing: D-LSR's metric is all zero.
	if _, err := dlsr.Route(net, drtp.Request{ID: 3, Src: 0, Dst: 2}); err != nil {
		t.Fatal(err)
	}
	if got, want := net.Snapshot(), net.DB().SnapshotInto(new(lsdb.Snapshot)); !reflect.DeepEqual(got.Norm, want.Norm) {
		t.Fatalf("after D-LSR the network's snapshot has Norm %v, a fresh fill %v", got.Norm, want.Norm)
	}
	wantDetour("after D-LSR")
}

// TestMinHopDisjointIgnoresConflicts shows the conflict-blind baseline
// stacking both backups on the same route, which then contend.
func TestMinHopDisjointIgnoresConflicts(t *testing.T) {
	net := theta(t)
	mgr := drtp.NewManager(net, routing.NewMinHopDisjoint())
	c1 := establish(t, mgr, 1, 0, 1)
	c2 := establish(t, mgr, 2, 0, 1)
	if c1.Backup().Hops() != 2 || c2.Backup().Hops() != 2 {
		t.Fatalf("backups = %s / %s, both should take the short route",
			c1.Backup().Format(net.Graph()), c2.Backup().Format(net.Graph()))
	}
	// Spare resources grow to cover the conflict (paper section 5), so
	// both still recover here; the cost shows up as extra spare.
	l02, _ := net.Graph().LinkBetween(0, 2)
	if net.DB().SpareBW(l02) != 2 {
		t.Fatalf("spare = %d, want 2 (conflicting backups not multiplexed)", net.DB().SpareBW(l02))
	}
}

// TestPLSRDistinguishesLessLoadedLink checks the P-LSR preference order
// from section 3.1: among candidate links, pick smaller ‖APLV‖.
func TestPLSRDistinguishesLessLoadedLink(t *testing.T) {
	net := theta(t)
	db := net.DB()
	l02, _ := net.Graph().LinkBetween(0, 2)
	l21, _ := net.Graph().LinkBetween(2, 1)
	// Manufacture heavy APLV on the via-2 route (protecting unrelated
	// primaries far away on links of the via-3-4 route).
	l03, _ := net.Graph().LinkBetween(0, 3)
	for id := drtp.ConnID(50); id < 55; id++ {
		if err := db.RegisterBackup(id, l02, []graph.LinkID{l03}); err != nil {
			t.Fatal(err)
		}
		if err := db.RegisterBackup(id, l21, []graph.LinkID{l03}); err != nil {
			t.Fatal(err)
		}
	}
	route, err := routing.NewPLSR().Route(net, drtp.Request{ID: 1, Src: 0, Dst: 1})
	if err != nil {
		t.Fatal(err)
	}
	if backupOf(route).Contains(l02) {
		t.Fatalf("P-LSR picked the loaded route: %s", backupOf(route).Format(net.Graph()))
	}
}

func TestNoBackupScheme(t *testing.T) {
	net := theta(t)
	route, err := routing.NewNoBackup().Route(net, drtp.Request{ID: 1, Src: 0, Dst: 1})
	if err != nil {
		t.Fatal(err)
	}
	if route.Primary.Empty() || !backupOf(route).Empty() {
		t.Fatalf("route = %+v", route)
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	netA, netB := theta(t), theta(t)
	a, err := routing.NewRandom(42).Route(netA, drtp.Request{ID: 1, Src: 0, Dst: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := routing.NewRandom(42).Route(netB, drtp.Request{ID: 1, Src: 0, Dst: 1})
	if err != nil {
		t.Fatal(err)
	}
	if backupOf(a).String() != backupOf(b).String() {
		t.Fatal("same seed produced different routes")
	}
}

func TestRouteNoPrimaryPath(t *testing.T) {
	// Saturate every link out of node 0 so no primary fits.
	net := theta(t)
	db := net.DB()
	for _, l := range net.Graph().Out(0) {
		for id := drtp.ConnID(100); ; id++ {
			if err := db.ReservePrimary(id, l); err != nil {
				break
			}
		}
	}
	for _, scheme := range []drtp.Scheme{routing.NewDLSR(), routing.NewPLSR(), routing.NewNoBackup(), routing.NewRandom(1)} {
		if _, err := scheme.Route(net, drtp.Request{ID: 1, Src: 0, Dst: 1}); err == nil {
			t.Errorf("%s: expected ErrNoRoute", scheme.Name())
		}
	}
}

// TestBackupUsesPrimaryLinkAsLastResort verifies the paper's Q semantics:
// Q is a large finite penalty, so when the only route shares the primary
// (a bridge), the backup still exists rather than being dropped.
func TestBackupUsesPrimaryLinkAsLastResort(t *testing.T) {
	// Barbell: 0-1 is a bridge between two triangles... simplest case:
	// a path graph where 0->1 is forced for both channels.
	g, err := topology.FromEdgeList(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	net, err := drtp.NewNetwork(g, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	route, err := routing.NewDLSR().Route(net, drtp.Request{ID: 1, Src: 0, Dst: 2})
	if err != nil {
		t.Fatal(err)
	}
	if backupOf(route).Empty() {
		t.Fatal("backup should exist even when forced onto the primary")
	}
	if backupOf(route).SharedLinks(route.Primary) != 2 {
		t.Fatalf("backup = %s", backupOf(route).Format(net.Graph()))
	}
}

// backupOf returns a route's first backup, or an empty path.
func backupOf(r drtp.Route) graph.Path {
	if len(r.Backups) == 0 {
		return graph.Path{}
	}
	return r.Backups[0]
}

func TestJointSchemeDisjointPair(t *testing.T) {
	net := theta(t)
	route, err := routing.NewJoint().Route(net, drtp.Request{ID: 1, Src: 0, Dst: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := backupOf(route)
	if b.Empty() {
		t.Fatal("no backup")
	}
	if route.Primary.SharedLinks(b) != 0 {
		t.Fatal("pair overlaps")
	}
	// Joint minimizes the total: primary direct (1 hop) + via-2 (2 hops).
	if route.Primary.Hops()+b.Hops() != 3 {
		t.Fatalf("total hops = %d", route.Primary.Hops()+b.Hops())
	}
}

func TestJointFallsBackOnBridge(t *testing.T) {
	g, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	net, err := drtp.NewNetwork(g, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	route, err := routing.NewJoint().Route(net, drtp.Request{ID: 1, Src: 0, Dst: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Fallback: a last-resort overlapping backup instead of rejection.
	if backupOf(route).Empty() {
		t.Fatal("no fallback backup on bridge topology")
	}
}

func TestJointRespectsQoSBound(t *testing.T) {
	net := theta(t)
	route, err := routing.NewJoint().Route(net, drtp.Request{ID: 1, Src: 0, Dst: 1, MaxHops: 2})
	if err != nil {
		t.Fatal(err)
	}
	if route.Primary.Hops() > 2 || backupOf(route).Hops() > 2 {
		t.Fatalf("pair exceeds bound: %d/%d hops", route.Primary.Hops(), backupOf(route).Hops())
	}
}
