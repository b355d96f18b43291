package router_test

import (
	"bytes"
	"testing"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/router"
	"github.com/rtcl/drtp/internal/topology"
)

// adverts returns, for every link of db, the advert fields a router
// emits for its own links.
func adverts(db *lsdb.DB) []proto.LinkAdvert {
	out := make([]proto.LinkAdvert, db.NumLinks())
	for i := range out {
		l := graph.LinkID(i)
		out[i] = proto.LinkAdvert{
			Link:        l,
			AvailPrim:   db.FreeBW(l),
			AvailBackup: db.AvailableForBackup(l),
			Norm:        db.APLVNorm(l),
			CV:          db.AppendCV(l, nil),
		}
	}
	return out
}

// mirror installs every link of db into v.
func mirror(db *lsdb.DB, v *router.LinkStateView) {
	for _, a := range adverts(db) {
		v.Apply(a)
	}
}

// viewState is everything a view reports per link: bandwidths, norm and
// the re-encoded Conflict Vector.
type viewState struct {
	prim, backup, norm int
	cv                 []byte
}

func snapshotView(v *router.LinkStateView, links int) []viewState {
	out := make([]viewState, links)
	for l := range out {
		s := &out[l]
		s.prim, s.backup, s.norm = v.Link(graph.LinkID(l))
		s.cv = v.CV(graph.LinkID(l))
	}
	return out
}

func diffViews(t *testing.T, got, want []viewState) {
	t.Helper()
	for l := range want {
		g, w := got[l], want[l]
		if g.prim != w.prim || g.backup != w.backup || g.norm != w.norm || !bytes.Equal(g.cv, w.cv) {
			t.Fatalf("link %d: view holds %+v, want %+v", l, g, w)
		}
	}
}

// FuzzLinkStateViewApply feeds the view adverts for an arbitrary link ID
// with arbitrary Conflict Vector bytes: short, over-long, with bits set
// past the last link. Nothing may panic; an out-of-range link is
// refused and leaves the view as it was; an in-range link's CV reads back
// as the input cut or zero-padded to (links+7)/8 bytes with every bit at
// or past links cleared, and no other link moves.
func FuzzLinkStateViewApply(f *testing.F) {
	// 7 edges: 14 links, so the last CV byte has two bits past the end.
	g, err := topology.FromEdgeList(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}})
	if err != nil {
		f.Fatal(err)
	}
	links := g.NumLinks()
	size := (links + 7) / 8
	f.Add(0, []byte{})
	f.Add(3, []byte{0x05})
	f.Add(links-1, []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(links, []byte{0x01, 0x02})
	f.Add(-1, []byte{0xff})
	f.Fuzz(func(t *testing.T, link int, cv []byte) {
		v := router.NewLinkStateView(g, 10, 1, router.DLSR)
		// Start every row full, so a row left partly stale shows.
		for l := 0; l < links; l++ {
			full := bytes.Repeat([]byte{0xff}, size)
			v.Apply(proto.LinkAdvert{Link: graph.LinkID(l), AvailPrim: l, AvailBackup: 2 * l, Norm: 3 * l, CV: full})
		}
		before := snapshotView(v, links)
		ok := v.Apply(proto.LinkAdvert{Link: graph.LinkID(link), AvailPrim: 7, AvailBackup: 8, Norm: 9, CV: cv})
		if inRange := link >= 0 && link < links; ok != inRange {
			t.Fatalf("Apply(link %d) = %v with %d links", link, ok, links)
		}
		want := before
		if ok {
			wantCV := make([]byte, size)
			copy(wantCV, cv)
			wantCV[size-1] &= byte(1)<<uint(links-8*(size-1)) - 1
			want = append([]viewState(nil), before...)
			want[link] = viewState{prim: 7, backup: 8, norm: 9, cv: wantCV}
		}
		diffViews(t, snapshotView(v, links), want)
		// Costing reads every row: it must stay in bounds.
		p := v.RoutePrimary(0, 3, nil)
		v.NextBackup(p, nil, nil)
	})
}

// FuzzLinkStateViewInstall pins the intake rule (DESIGN.md, link-state
// adverts; LinkStateView.Install) against a map model. Each 5-byte step of the script is one update:
// an origin (in or outside the topology on either side), a sequence, two
// link summaries (in or out of range) and the installing view's self (a
// router, or an address outside the topology).
// After every step the view, Heard, fresh and dropped must match the
// model: updates from hostile origins, from self or with a stale
// sequence leave the view and Heard unchanged, dropped counts the
// summaries naming links outside the topology (all of them for a hostile
// origin), and self's own links never move.
func FuzzLinkStateViewInstall(f *testing.F) {
	g, err := topology.FromEdgeList(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}})
	if err != nil {
		f.Fatal(err)
	}
	nodes, links := g.NumNodes(), g.NumLinks()
	f.Add([]byte{2, 1, 3, 4, 0, 2, 1, 3, 4, 0, 2, 2, 3, 4, 3})
	f.Add([]byte{0, 5, 1, 2, 1, 9, 5, 0, 19, 1, 2, 0, 5, 6, 8, 2, 3, 5, 5, 2})
	f.Add([]byte{1, 1, 19, 0, 0, 8, 1, 3, 4, 7, 7, 2, 2, 2, 8})
	f.Add([]byte{3, 1, 5, 6, 2})
	f.Fuzz(func(t *testing.T, script []byte) {
		v := router.NewLinkStateView(g, 10, 1, router.DLSR)
		want := snapshotView(v, links)
		seen := make(map[graph.NodeID]uint64)
		for i := 0; i+5 <= min(len(script), 5*64); i += 5 {
			b := script[i : i+5]
			m := proto.LSUpdate{Origin: graph.NodeID(int(b[0])%(nodes+4) - 2), Seq: uint64(b[1] % 8)}
			for k, lb := range b[2:4] {
				m.Links = append(m.Links, proto.LinkAdvert{
					Link: graph.LinkID(int(lb)%(links+6) - 3), AvailPrim: i + k + 1,
					AvailBackup: i + k + 2, Norm: i + k + 3, CV: []byte{byte(i + k), 0},
				})
			}
			self := graph.NodeID(int(b[4])%(nodes+3) - 1)

			var wantFresh bool
			var wantDropped int
			switch {
			case m.Origin < 0 || int(m.Origin) >= nodes:
				wantDropped = len(m.Links)
			case m.Origin == self || m.Seq <= seen[m.Origin]:
			default:
				wantFresh = true
				seen[m.Origin] = m.Seq
				for _, a := range m.Links {
					switch {
					case a.Link < 0 || int(a.Link) >= links:
						wantDropped++
					case g.Link(a.Link).From != self:
						want[a.Link] = viewState{prim: a.AvailPrim, backup: a.AvailBackup, norm: a.Norm, cv: a.CV}
					}
				}
			}
			fresh, dropped := v.Install(m, self)
			if fresh != wantFresh || dropped != wantDropped {
				t.Fatalf("step %d: Install(%+v, self %d) = (%v, %d), want (%v, %d)", i/5, m, self, fresh, dropped, wantFresh, wantDropped)
			}
			if v.Heard() != len(seen) {
				t.Fatalf("step %d: Heard() = %d, want %d", i/5, v.Heard(), len(seen))
			}
			diffViews(t, snapshotView(v, links), want)
		}
	})
}

// TestLinkStateViewApplyDoesNotAlias holds the view to owning what it
// installs: the in-memory transport hands every neighbour the same
// LSUpdate, so a view keeping an advert's CV slice would change with any
// later write to it.
func TestLinkStateViewApplyDoesNotAlias(t *testing.T) {
	g, err := topology.Waxman(topology.WaxmanConfig{Nodes: 20, AvgDegree: 3, MinDegree: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	db, err := lsdb.New(g, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	ls := []graph.LinkID{0, 1, 2}
	for l := 3; l < g.NumLinks(); l += 4 {
		if err := db.RegisterBackup(lsdb.ConnID(l), graph.LinkID(l), ls); err != nil {
			t.Fatal(err)
		}
	}
	v := router.NewLinkStateView(g, 10, 1, router.DLSR)
	ads := adverts(db)
	for _, a := range ads {
		v.Apply(a)
	}
	want := snapshotView(v, g.NumLinks())
	for _, a := range ads {
		for i := range a.CV {
			a.CV[i] ^= 0xff
		}
	}
	diffViews(t, snapshotView(v, g.NumLinks()), want)
}

// TestViewSelectionAllocs is the allocation budget of route selection on
// a link-state view, which routers run under their mutex: on a loaded
// 60-node network a primary plus a backup allocate the two returned paths
// and nothing else, and re-applying the adverts the view was built from
// allocates nothing.
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
			t.Run("reapply", func(t *testing.T) {
				ads := adverts(db)
				if avg := testing.AllocsPerRun(100, func() {
					for _, a := range ads {
						v.Apply(a)
					}
				}); avg != 0 {
					t.Errorf("re-applying %d adverts allocates %.1f objects, want 0", len(ads), avg)
				}
			})
		})
	}
}
