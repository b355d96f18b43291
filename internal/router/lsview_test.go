package router_test

import (
	"testing"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/router"
	"github.com/rtcl/drtp/internal/topology"
)

// mirror installs every link of db into v through the advert fields a
// router emits for its own links.
func mirror(db *lsdb.DB, v *router.LinkStateView) {
	for i := 0; i < db.NumLinks(); i++ {
		l := graph.LinkID(i)
		v.Apply(proto.LinkAdvert{
			Link:        l,
			AvailPrim:   db.AvailableForPrimary(l),
			AvailBackup: db.AvailableForBackup(l),
			Norm:        db.APLVNorm(l),
			CV:          db.AppendCV(l, nil),
		})
	}
}

// TestViewSelectionAllocs is the allocation budget of route selection on
// a link-state view, which routers and the route finder run under their
// mutex: on a loaded 60-node network a primary plus a backup allocate the
// two returned paths and nothing else.
func TestViewSelectionAllocs(t *testing.T) {
	g, err := topology.Waxman(topology.WaxmanConfig{Nodes: 60, AvgDegree: 3, MinDegree: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []router.BackupScheme{router.DLSR, router.PLSR} {
		t.Run(scheme.String(), func(t *testing.T) {
			db, err := lsdb.New(g, 40, 1)
			if err != nil {
				t.Fatal(err)
			}
			v := router.NewLinkStateView(g, 40, 1, scheme)
			// Load the network so Conflict Vectors and norms are non-trivial.
			for i := 0; i < 120; i++ {
				src, dst := graph.NodeID(i%60), graph.NodeID((i*7+13)%60)
				if src == dst {
					continue
				}
				p := v.RoutePrimary(src, dst, nil)
				b := v.NextBackup(p, nil, nil)
				if p.Empty() || b.Empty() {
					t.Fatalf("request %d: no routes on a lightly loaded network", i)
				}
				id := lsdb.ConnID(i + 1)
				if err := db.ReservePrimaryPath(id, p.Links()); err != nil {
					t.Fatal(err)
				}
				if err := db.RegisterBackupPath(id, b.Links(), p.Links()); err != nil {
					t.Fatal(err)
				}
				mirror(db, v)
			}
			if avg := testing.AllocsPerRun(100, func() {
				p := v.RoutePrimary(0, 59, nil)
				v.NextBackup(p, nil, nil)
			}); avg > 2 {
				t.Errorf("RoutePrimary + NextBackup allocate %.1f objects, want <= 2 (the returned paths)", avg)
			}
		})
	}
}
