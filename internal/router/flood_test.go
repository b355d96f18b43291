package router_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/faultinject"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/router"
	"github.com/rtcl/drtp/internal/telemetry"
	"github.com/rtcl/drtp/internal/topology"
	"github.com/rtcl/drtp/internal/transport"
)

// The flood tests run on newHoldDownCluster: with its stretched
// LSInterval no periodic refresh falls inside a test unless the test
// waits for one.

// settled is how long a test waits, once the copies it expects are out,
// for any copy beyond them to show.
const settled = 50 * time.Millisecond

// advertSends reads the cluster's count of LSUpdate copies put on
// adjacencies.
func advertSends(reg *telemetry.Registry) int {
	return int(reg.CounterVec("drtp_router_ls_adverts_total", "", "event").With("sent").Value())
}

// awaitSends waits until want copies have been sent since base, then for
// the flood to settle, and reports what was sent.
func awaitSends(reg *telemetry.Registry, base, want int) int {
	until(time.Now().Add(floodSlack), func() bool { return advertSends(reg)-base >= want })
	time.Sleep(settled)
	return advertSends(reg) - base
}

// TestFloodTriggeredAdvertCostsNodesMinusOne: on a failure-free cluster a
// triggered advert travels the origin's shortest-path tree, one send per
// router reached, and a refresh floods every adjacency, one send per
// adjacency but the one each router first heard it on. On the 12-node
// topology of the ledger's control-plane workloads that is 11 sends
// against 25. It pins the forwarding rule (DESIGN.md, link-state
// adverts).
func TestFloodTriggeredAdvertCostsNodesMinusOne(t *testing.T) {
	ledger, err := topology.Waxman(topology.WaxmanConfig{Nodes: 12, AvgDegree: 3, MinDegree: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		// refresh pins a refresh's cost on g.
		refresh int
	}{
		{"theta", theta(t), 8},
		{"ledger12", ledger, 25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			c, m, reg := newHoldDownCluster(t, g, nil)
			nodes := g.NumNodes()
			perTriggered, perRefresh := nodes-1, 2*g.NumEdges()-(nodes-1)
			if perRefresh != tc.refresh {
				t.Fatalf("a refresh crosses %d adjacencies, want %d", perRefresh, tc.refresh)
			}
			quiet()

			// Every router an establishment touches originates triggered
			// adverts.
			base := advertSends(reg)
			trig0, ref0 := m.totals()
			if _, err := c.Router(0).Establish(1, 1); err != nil {
				t.Fatal(err)
			}
			var lag string
			if !until(time.Now().Add(holdDown+floodSlack), func() bool { lag = viewLag(g, c, m); return lag == "" }) {
				t.Fatalf("views not current after the establishment: %s", lag)
			}
			trig, ref := m.totals()
			trig, ref = trig-trig0, ref-ref0
			if trig == 0 {
				t.Fatal("the establishment originated no triggered advert")
			}
			want := trig*perTriggered + ref*perRefresh
			if got := awaitSends(reg, base, want); got != want {
				t.Fatalf("%d triggered and %d refresh adverts cost %d sends, want %d (%d each, %d per refresh)",
					trig, ref, got, want, perTriggered, perRefresh)
			}

			for n := 0; n < nodes; n++ {
				base := advertSends(reg)
				c.Router(graph.NodeID(n)).Refresh()
				if got := awaitSends(reg, base, perRefresh); got != perRefresh {
					t.Fatalf("a refresh from router %d cost %d sends, want %d", n, got, perRefresh)
				}
			}
		})
	}
}

// TestFloodTreeReachesEachRouterOnce: for every origin, the children the
// routers derive apiece make one tree — every other node has exactly one
// parent, a neighbour one hop closer to the origin, the lowest-numbered
// of those — on the paper's 60-node topology and on a ring, where the tie
// rule decides the node opposite the origin.
func TestFloodTreeReachesEachRouterOnce(t *testing.T) {
	paper, err := topology.Waxman(topology.WaxmanConfig{Nodes: 60, AvgDegree: 4, MinDegree: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{paper, ring6(t)} {
		n := g.NumNodes()
		children := make([][][]graph.NodeID, n)
		for r := range children {
			children[r] = router.FloodChildren(g, graph.NodeID(r))
		}
		for o := 0; o < n; o++ {
			hops := graph.HopDistances(g, graph.NodeID(o))
			parent := make([]graph.NodeID, n)
			for i := range parent {
				parent[i] = -1
			}
			for r := 0; r < n; r++ {
				for _, c := range children[r][o] {
					if parent[c] >= 0 {
						t.Fatalf("origin %d: node %d has parents %d and %d", o, c, parent[c], r)
					}
					parent[c] = graph.NodeID(r)
				}
			}
			for c := 0; c < n; c++ {
				if c == o {
					if parent[c] >= 0 {
						t.Fatalf("origin %d has parent %d in its own tree", o, parent[c])
					}
					continue
				}
				want := graph.NodeID(-1)
				for _, p := range g.Neighbors(graph.NodeID(c)) {
					if hops[p] == hops[c]-1 {
						want = p // Neighbors is ascending: the first is the lowest.
						break
					}
				}
				if parent[c] != want {
					t.Fatalf("origin %d: node %d has parent %d, want %d", o, c, parent[c], want)
				}
			}
		}
	}
}

// ring6 is the 6-node ring 0-1-2-3-4-5-0.
func ring6(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := topology.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// staleViews lists the routers whose view of link l differs from its
// owner's database.
func staleViews(g *graph.Graph, c *router.Cluster, l graph.LinkID) []graph.NodeID {
	db := c.Router(g.Link(l).From).DB()
	prim, backup, norm, cv := db.FreeBW(l), db.AvailableForBackup(l), db.APLVNorm(l), db.AppendCV(l, nil)
	var out []graph.NodeID
	for n := 0; n < c.Size(); n++ {
		r := c.Router(graph.NodeID(n))
		if p, b, nm := r.View(l); p != prim || b != backup || nm != norm || !bytes.Equal(r.ViewCV(l), cv) {
			out = append(out, graph.NodeID(n))
		}
	}
	return out
}

// TestFloodOrphansHealWithinLSInterval: on a 6-ring with edge 1-2 failed,
// routers 2 and 3 sit below the broken edge of node 0's tree (2's parent
// is 1, 3's is 2, which wins the tie with 4). A change at 0 reaches the
// rest of the ring at once and not them; the next refresh brings it,
// within one LSInterval.
func TestFloodOrphansHealWithinLSInterval(t *testing.T) {
	start := time.Now()
	g := ring6(t)
	c, m, _ := newHoldDownCluster(t, g, nil)
	quiet()
	// Primary 0-1, backup the long way round, 0-5-4-3-2-1.
	if _, err := c.Router(0).Establish(1, 1); err != nil {
		t.Fatal(err)
	}
	var lag string
	if !until(time.Now().Add(holdDown+floodSlack), func() bool { lag = viewLag(g, c, m); return lag == "" }) {
		t.Fatalf("views not current after the establishment: %s", lag)
	}
	c.FailEdge(1, 2)
	quiet()

	l01, _ := g.LinkBetween(0, 1)
	changed := time.Now()
	if err := c.Router(0).Release(1); err != nil {
		t.Fatal(err)
	}
	want := []graph.NodeID{2, 3}
	if !until(changed.Add(floodSlack), func() bool { return reflect.DeepEqual(staleViews(g, c, l01), want) }) {
		t.Fatalf("after the release routers %v see link 0->1 stale, want %v", staleViews(g, c, l01), want)
	}
	time.Sleep(time.Until(changed.Add(holdDown)))
	if time.Since(start) > holdLSInterval-floodSlack {
		t.Skipf("setup took %v: a periodic refresh may already have healed the orphans", time.Since(start))
	}
	if got := staleViews(g, c, l01); !reflect.DeepEqual(got, want) {
		t.Fatalf("a hold-down after the release routers %v see link 0->1 stale, want %v", got, want)
	}
	// The failed edge's links are advertised empty, unlike their owners'
	// databases, so viewLag does not apply; node 0's links are the test.
	var stale []graph.NodeID
	if !until(changed.Add(holdLSInterval+floodSlack), func() bool {
		for _, l := range g.Out(0) {
			if stale = staleViews(g, c, l); stale != nil {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("routers %v still see node 0's links stale %v after the release", stale, holdLSInterval+floodSlack)
	}
}

// TestFloodConvergesAfterLoss: changes made, and advertised, while a
// seeded schedule drops one message in ten, adverts and their copies
// included, are in every view within one LSInterval of the loss ending:
// the next refresh heals whatever copy the tree lost.
func TestFloodConvergesAfterLoss(t *testing.T) {
	g := theta(t)
	start := time.Unix(0, 0)
	clock := transport.NewManualClock(start)
	var inj *faultinject.Injector
	c, m, _ := newHoldDownCluster(t, g, func(mem *transport.Mem) transport.Attacher {
		inj = faultinject.New(&faultinject.Schedule{
			Seed:  37,
			Links: []faultinject.LinkRule{{From: -1, To: -1, Drop: 0.1, End: 1}},
		}, mem, faultinject.WithClock(clock))
		return inj
	})
	quiet()
	for i := 0; i < 8; i++ {
		id, dst := lsdb.ConnID(i+1), graph.NodeID(1+i%4)
		if _, err := c.Router(0).Establish(id, dst); err != nil {
			t.Logf("establish %d -> %d under loss: %v", id, dst, err)
			continue
		}
		if i%2 == 0 {
			if err := c.Router(0).Release(id); err != nil {
				t.Logf("release %d under loss: %v", id, err)
			}
		}
	}
	// The last changes' adverts, the hold-down's trailing edge included,
	// go out under loss too.
	quiet()
	clock.Set(start.Add(time.Millisecond))
	ended := time.Now()
	if inj.Stats().Drops == 0 {
		t.Fatal("the schedule dropped nothing")
	}
	var lag string
	if !until(ended.Add(holdLSInterval+floodSlack), func() bool { lag = viewLag(g, c, m); return lag == "" }) {
		t.Fatalf("views not current %v after the loss ended: %s", holdLSInterval+floodSlack, lag)
	}
}
