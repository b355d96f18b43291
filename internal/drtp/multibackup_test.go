package drtp_test

import (
	"slices"
	"testing"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
)

func TestEstablishMultipleBackups(t *testing.T) {
	net := thetaNetwork(t, 10)
	primary := pathOf(t, net, 0, 1)
	b1 := pathOf(t, net, 0, 2, 1)
	b2 := pathOf(t, net, 0, 3, 4, 1)
	mgr := drtp.NewManager(net, fixedScheme{routes: map[drtp.ConnID]drtp.Route{
		1: {Primary: primary, Backups: []graph.Path{b1, b2}},
	}})
	conn, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(conn.Backups) != 2 {
		t.Fatalf("backups = %d", len(conn.Backups))
	}
	if conn.Backup().String() != b1.String() {
		t.Fatal("Backup() is not the first backup")
	}
	db := net.DB()
	for _, backup := range conn.Backups {
		for _, l := range backup.Links() {
			if !db.HasBackup(1, l) {
				t.Fatalf("missing registration on link %d", l)
			}
		}
	}
	if s := mgr.Stats(); s.BackupsEstablished != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if err := mgr.Release(1); err != nil {
		t.Fatal(err)
	}
	if db.TotalSpareBW() != 0 || db.TotalPrimeBW() != 0 {
		t.Fatal("release leaked multi-backup resources")
	}
}

func TestOverlappingSecondBackupDropped(t *testing.T) {
	net := thetaNetwork(t, 10)
	primary := pathOf(t, net, 0, 1)
	b1 := pathOf(t, net, 0, 2, 1)
	mgr := drtp.NewManager(net, fixedScheme{routes: map[drtp.ConnID]drtp.Route{
		1: {Primary: primary, Backups: []graph.Path{b1, b1}},
	}})
	conn, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(conn.Backups) != 1 {
		t.Fatalf("backups = %d, duplicate should be dropped", len(conn.Backups))
	}
	if s := mgr.Stats(); s.BackupRegisterFailures != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSecondBackupRecoversWhenFirstHit(t *testing.T) {
	// The first backup shares a link with the primary (forced); the
	// second is disjoint. Failing the shared link must activate the
	// second backup.
	net := thetaNetwork(t, 10)
	primary := pathOf(t, net, 0, 2, 1)
	b1 := pathOf(t, net, 0, 2, 1) // overlaps primary entirely
	b2 := pathOf(t, net, 0, 3, 4, 1)
	mgr := drtp.NewManager(net, fixedScheme{routes: map[drtp.ConnID]drtp.Route{
		1: {Primary: primary, Backups: []graph.Path{b1, b2}},
	}})
	if _, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	l02, _ := net.Graph().LinkBetween(0, 2)
	out := mgr.EvaluateLinkFailure(l02)
	if out.Affected != 1 || out.Recovered != 1 {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestMultiLinkFailure(t *testing.T) {
	net := thetaNetwork(t, 10)
	primary := pathOf(t, net, 0, 1)
	b1 := pathOf(t, net, 0, 2, 1)
	b2 := pathOf(t, net, 0, 3, 4, 1)
	mgr := drtp.NewManager(net, fixedScheme{routes: map[drtp.ConnID]drtp.Route{
		1: {Primary: primary, Backups: []graph.Path{b1, b2}},
	}})
	if _, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	l01, _ := net.Graph().LinkBetween(0, 1)
	l02, _ := net.Graph().LinkBetween(0, 2)
	l03, _ := net.Graph().LinkBetween(0, 3)

	// Primary plus first backup fail together: the second backup saves it.
	out := mgr.EvaluateMultiLinkFailure([]graph.LinkID{l01, l02})
	if out.Affected != 1 || out.Recovered != 1 {
		t.Fatalf("outcome = %+v", out)
	}
	// All three routes fail: nothing to activate.
	out = mgr.EvaluateMultiLinkFailure([]graph.LinkID{l01, l02, l03})
	if out.Affected != 1 || out.Recovered != 0 || out.BackupHit != 1 {
		t.Fatalf("outcome = %+v", out)
	}
	// Failure not touching the primary affects nobody.
	out = mgr.EvaluateMultiLinkFailure([]graph.LinkID{l02, l03})
	if out.Affected != 0 {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestSweepLinkPairFailures(t *testing.T) {
	net := thetaNetwork(t, 10)
	mgr := drtp.NewManager(net, fixedScheme{routes: map[drtp.ConnID]drtp.Route{
		1: drtp.WithBackup(pathOf(t, net, 0, 1), pathOf(t, net, 0, 2, 1)),
	}})
	if _, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	outcomes := mgr.SweepLinkPairFailures(50, 7)
	if len(outcomes) != 50 {
		t.Fatalf("samples = %d", len(outcomes))
	}
	again := mgr.SweepLinkPairFailures(50, 7)
	for i := range outcomes {
		if outcomes[i] != again[i] {
			t.Fatal("pair sweep not deterministic for equal seeds")
		}
	}
	if mgr.SweepLinkPairFailures(0, 7) != nil {
		t.Fatal("zero samples should return nil")
	}
}

func TestReactiveRecovery(t *testing.T) {
	// Reactive recovery re-routes from free capacity: with ample capacity
	// it succeeds; with none left it fails.
	net := thetaNetwork(t, 10)
	mgr := drtp.NewManager(net, fixedScheme{routes: map[drtp.ConnID]drtp.Route{
		1: {Primary: pathOf(t, net, 0, 1)},
	}}, drtp.WithOptionalBackup())
	if _, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	l01, _ := net.Graph().LinkBetween(0, 1)
	out := mgr.EvaluateLinkFailureReactive(l01)
	if out.Affected != 1 || out.Recovered != 1 {
		t.Fatalf("outcome = %+v", out)
	}

	// Exhaust the alternatives: fill via-2 and via-3-4 routes.
	db := net.DB()
	for _, hop := range [][2]graph.NodeID{{0, 2}, {0, 3}} {
		l, _ := net.Graph().LinkBetween(hop[0], hop[1])
		for id := drtp.ConnID(100); ; id++ {
			if err := db.ReservePrimary(id, l); err != nil {
				break
			}
		}
	}
	out = mgr.EvaluateLinkFailureReactive(l01)
	if out.Recovered != 0 || out.Contention != 1 {
		t.Fatalf("outcome = %+v", out)
	}
	if got := len(mgr.SweepFailuresReactive()); got != net.Graph().NumLinks() {
		t.Fatalf("reactive sweep size = %d", got)
	}
}

func TestReactiveContentionAmongAffected(t *testing.T) {
	// Two affected connections compete for one remaining unit on the only
	// alternative route: the earlier-established one wins.
	net := thetaNetwork(t, 2)
	routes := map[drtp.ConnID]drtp.Route{
		1: {Primary: pathOf(t, net, 0, 1)},
		2: {Primary: pathOf(t, net, 0, 1)},
	}
	mgr := drtp.NewManager(net, fixedScheme{routes: routes}, drtp.WithOptionalBackup())
	for id := drtp.ConnID(1); id <= 2; id++ {
		if _, err := mgr.Establish(drtp.Request{ID: id, Src: 0, Dst: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// One unit of background load on both alternative routes.
	db := net.DB()
	for _, hop := range [][2]graph.NodeID{{0, 2}, {2, 1}, {0, 3}, {3, 4}, {4, 1}} {
		l, _ := net.Graph().LinkBetween(hop[0], hop[1])
		if err := db.ReservePrimary(900, l); err != nil {
			t.Fatal(err)
		}
	}
	l01, _ := net.Graph().LinkBetween(0, 1)
	out := mgr.EvaluateLinkFailureReactive(l01)
	// Each alternative route has one unit left: both conns recover, one
	// per route.
	if out.Affected != 2 || out.Recovered != 2 {
		t.Fatalf("outcome = %+v", out)
	}
	// The evaluation drew bandwidth down on both routes, in a buffer of its
	// own: the network's snapshot is patched, not refilled, so a write
	// through it would outlive the evaluation.
	fresh := db.SnapshotInto(new(lsdb.Snapshot))
	if snap := net.Snapshot(); !slices.Equal(snap.Free, fresh.Free) || !slices.Equal(snap.AvailBackup, fresh.AvailBackup) || !slices.Equal(snap.Norm, fresh.Norm) {
		t.Fatalf("reactive evaluation left the network's snapshot with Free %v, a fresh fill has %v", snap.Free, fresh.Free)
	}
	// Take away the via-3-4 route entirely.
	for _, hop := range [][2]graph.NodeID{{0, 3}} {
		l, _ := net.Graph().LinkBetween(hop[0], hop[1])
		if err := db.ReservePrimary(901, l); err != nil {
			t.Fatal(err)
		}
	}
	out = mgr.EvaluateLinkFailureReactive(l01)
	if out.Recovered != 1 || out.Contention != 1 {
		t.Fatalf("outcome = %+v", out)
	}
}
