package drtp_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/topology"
)

// fixedScheme returns pre-scripted routes per connection ID; used to drive
// the Manager deterministically in tests.
type fixedScheme struct {
	routes map[drtp.ConnID]drtp.Route
	err    error
}

func (fixedScheme) Name() string { return "fixed" }

func (s fixedScheme) Route(_ *drtp.Network, req drtp.Request) (drtp.Route, error) {
	if s.err != nil {
		return drtp.Route{}, s.err
	}
	r, ok := s.routes[req.ID]
	if !ok {
		return drtp.Route{}, drtp.ErrNoRoute
	}
	return r, nil
}

// theta is the 4-node test network with three parallel routes 0 -> 1:
//
//	direct:  0-1          (1 hop)
//	via 2:   0-2-1        (2 hops)
//	via 3,4: 0-3-4-1      (3 hops)
func theta(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := topology.FromEdgeList(5, [][2]int{{0, 1}, {0, 2}, {2, 1}, {0, 3}, {3, 4}, {4, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func thetaNetwork(t *testing.T, capacity int) *drtp.Network {
	t.Helper()
	net, err := drtp.NewNetwork(theta(t), capacity, 1)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func pathOf(t *testing.T, net *drtp.Network, nodes ...graph.NodeID) graph.Path {
	t.Helper()
	p, err := graph.PathFromNodes(net.Graph(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEstablishReservesResources(t *testing.T) {
	net := thetaNetwork(t, 10)
	primary := pathOf(t, net, 0, 1)
	backup := pathOf(t, net, 0, 2, 1)
	mgr := drtp.NewManager(net, fixedScheme{routes: map[drtp.ConnID]drtp.Route{
		1: drtp.WithBackup(primary, backup),
	}})

	conn, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !conn.HasBackup() {
		t.Fatal("connection lost its backup")
	}
	db := net.DB()
	if got := db.PrimeBW(primary.Links()[0]); got != 1 {
		t.Fatalf("prime on primary link = %d", got)
	}
	for _, l := range backup.Links() {
		if db.SpareBW(l) != 1 {
			t.Fatalf("spare on backup link %d = %d", l, db.SpareBW(l))
		}
		if got := db.APLVAt(l, primary.Links()[0]); got != 1 {
			t.Fatalf("APLV[%d][primary] = %d", l, got)
		}
	}
	stats := mgr.Stats()
	if stats.Requests != 1 || stats.Accepted != 1 || stats.Rejected != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if mgr.NumActive() != 1 || mgr.NumActiveWithBackup() != 1 {
		t.Fatalf("active=%d withBackup=%d", mgr.NumActive(), mgr.NumActiveWithBackup())
	}
}

func TestEstablishDuplicateID(t *testing.T) {
	net := thetaNetwork(t, 10)
	route := drtp.WithBackup(pathOf(t, net, 0, 1), pathOf(t, net, 0, 2, 1))
	mgr := drtp.NewManager(net, fixedScheme{routes: map[drtp.ConnID]drtp.Route{1: route}})
	if _, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1}); err == nil {
		t.Fatal("duplicate connection ID accepted")
	}
}

func TestEstablishNoRoute(t *testing.T) {
	net := thetaNetwork(t, 10)
	mgr := drtp.NewManager(net, fixedScheme{err: drtp.ErrNoRoute})
	_, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1})
	if !errors.Is(err, drtp.ErrNoRoute) {
		t.Fatalf("err = %v", err)
	}
	if s := mgr.Stats(); s.Rejected != 1 || s.Accepted != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if net.DB().TotalPrimeBW() != 0 {
		t.Fatal("rejected request leaked resources")
	}
}

func TestBackupRequiredRejectsEmptyBackup(t *testing.T) {
	net := thetaNetwork(t, 10)
	mgr := drtp.NewManager(net, fixedScheme{routes: map[drtp.ConnID]drtp.Route{
		1: {Primary: pathOf(t, net, 0, 1)},
	}})
	_, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1})
	if !errors.Is(err, drtp.ErrNoBackup) {
		t.Fatalf("err = %v, want ErrNoBackup", err)
	}
	if s := mgr.Stats(); s.RejectedNoBackup != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if net.DB().TotalPrimeBW() != 0 || net.DB().TotalSpareBW() != 0 {
		t.Fatal("rejected request leaked resources")
	}
}

func TestOptionalBackupAdmitsBackupless(t *testing.T) {
	net := thetaNetwork(t, 10)
	mgr := drtp.NewManager(net, fixedScheme{routes: map[drtp.ConnID]drtp.Route{
		1: {Primary: pathOf(t, net, 0, 1)},
	}}, drtp.WithOptionalBackup())
	conn, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1})
	if err != nil {
		t.Fatal(err)
	}
	if conn.HasBackup() {
		t.Fatal("unexpected backup")
	}
	if s := mgr.Stats(); s.Accepted != 1 || s.BackupLess != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBackupRegisterFailureRollsBack(t *testing.T) {
	// Fill link 0->2 with primaries so the backup register packet is
	// rejected there.
	net := thetaNetwork(t, 2)
	l02, _ := net.Graph().LinkBetween(0, 2)
	if err := net.DB().ReservePrimary(100, l02); err != nil {
		t.Fatal(err)
	}
	if err := net.DB().ReservePrimary(101, l02); err != nil {
		t.Fatal(err)
	}
	primary := pathOf(t, net, 0, 1)
	backup := pathOf(t, net, 0, 2, 1)
	routes := map[drtp.ConnID]drtp.Route{1: drtp.WithBackup(primary, backup)}

	// Required policy: whole request rejected, primary rolled back.
	mgr := drtp.NewManager(net, fixedScheme{routes: routes})
	if _, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1}); !errors.Is(err, drtp.ErrNoBackup) {
		t.Fatalf("err = %v", err)
	}
	l01, _ := net.Graph().LinkBetween(0, 1)
	if got := net.DB().PrimeBW(l01); got != 0 {
		t.Fatalf("primary not rolled back: prime(0->1)=%d", got)
	}
	l21, _ := net.Graph().LinkBetween(2, 1)
	if net.DB().NumBackupsOn(l21) != 0 {
		t.Fatal("partial backup registration not rolled back")
	}
	if s := mgr.Stats(); s.BackupRegisterFailures != 1 || s.RejectedNoBackup != 1 {
		t.Fatalf("stats = %+v", s)
	}

	// Optional policy: connection admitted backup-less.
	mgr2 := drtp.NewManager(net, fixedScheme{routes: routes}, drtp.WithOptionalBackup())
	conn, err := mgr2.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1})
	if err != nil {
		t.Fatal(err)
	}
	if conn.HasBackup() {
		t.Fatal("backup should have failed registration")
	}
}

func TestReleaseReturnsResources(t *testing.T) {
	net := thetaNetwork(t, 10)
	mgr := drtp.NewManager(net, fixedScheme{routes: map[drtp.ConnID]drtp.Route{
		1: drtp.WithBackup(pathOf(t, net, 0, 1), pathOf(t, net, 0, 2, 1)),
	}})
	if _, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Release(1); err != nil {
		t.Fatal(err)
	}
	db := net.DB()
	if db.TotalPrimeBW() != 0 || db.TotalSpareBW() != 0 {
		t.Fatalf("resources leaked: prime=%d spare=%d", db.TotalPrimeBW(), db.TotalSpareBW())
	}
	if mgr.NumActive() != 0 {
		t.Fatal("connection still active")
	}
	if err := mgr.Release(1); err == nil {
		t.Fatal("double release accepted")
	}
}

func TestConnectionsOrderedByEstablishment(t *testing.T) {
	net := thetaNetwork(t, 10)
	routes := map[drtp.ConnID]drtp.Route{
		7: drtp.WithBackup(pathOf(t, net, 0, 1), pathOf(t, net, 0, 2, 1)),
		3: drtp.WithBackup(pathOf(t, net, 0, 2, 1), pathOf(t, net, 0, 1)),
		5: drtp.WithBackup(pathOf(t, net, 0, 3, 4, 1), pathOf(t, net, 0, 1)),
	}
	mgr := drtp.NewManager(net, fixedScheme{routes: routes})
	for _, id := range []drtp.ConnID{7, 3, 5} {
		if _, err := mgr.Establish(drtp.Request{ID: id, Src: 0, Dst: 1}); err != nil {
			t.Fatal(err)
		}
	}
	conns := mgr.Connections()
	if len(conns) != 3 || conns[0].ID != 7 || conns[1].ID != 3 || conns[2].ID != 5 {
		t.Fatalf("order = %v %v %v", conns[0].ID, conns[1].ID, conns[2].ID)
	}
	if _, ok := mgr.Get(3); !ok {
		t.Fatal("Get(3) missed")
	}
	if _, ok := mgr.Get(99); ok {
		t.Fatal("Get(99) hit")
	}
}

// TestEstablishReleaseLeavesCleanStateProperty establishes and releases
// random interleavings of connections over random routes and verifies the
// database is completely clean afterwards.
func TestEstablishReleaseLeavesCleanStateProperty(t *testing.T) {
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, err := topology.Waxman(topology.WaxmanConfig{Nodes: 12, AvgDegree: 3, MinDegree: 2, Seed: seed})
		if err != nil {
			return false
		}
		net, err := drtp.NewNetwork(g, 50, 1)
		if err != nil {
			return false
		}
		routes := make(map[drtp.ConnID]drtp.Route)
		// Pre-script random min-hop primary plus arbitrary backup.
		for id := drtp.ConnID(1); id <= 30; id++ {
			src := graph.NodeID(r.Intn(12))
			dst := graph.NodeID(r.Intn(12))
			if src == dst {
				continue
			}
			p, _ := new(graph.Scratch).ShortestPath(g, src, dst, graph.UnitCost)
			b, _ := new(graph.Scratch).ShortestPath(g, src, dst, func(l graph.LinkID) float64 {
				if p.Contains(l) {
					return 5
				}
				return 1
			})
			routes[id] = drtp.WithBackup(p, b)
		}
		mgr := drtp.NewManager(net, fixedScheme{routes: routes})
		active := make([]drtp.ConnID, 0, len(routes))
		for id := drtp.ConnID(1); id <= 30; id++ {
			if _, ok := routes[id]; !ok {
				continue
			}
			if _, err := mgr.Establish(drtp.Request{ID: id}); err != nil {
				return false
			}
			active = append(active, id)
			if len(active) > 3 && r.Intn(2) == 0 {
				k := r.Intn(len(active))
				if err := mgr.Release(active[k]); err != nil {
					return false
				}
				active = append(active[:k], active[k+1:]...)
			}
		}
		for _, id := range active {
			if err := mgr.Release(id); err != nil {
				return false
			}
		}
		db := net.DB()
		if db.TotalPrimeBW() != 0 || db.TotalSpareBW() != 0 {
			return false
		}
		for l := 0; l < g.NumLinks(); l++ {
			if db.APLVNorm(graph.LinkID(l)) != 0 || db.NumBackupsOn(graph.LinkID(l)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
