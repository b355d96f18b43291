package router

import (
	"runtime"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/topology"
	"github.com/rtcl/drtp/internal/transport"
)

// liveHeap returns the bytes of live heap after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// instances is how many of a structure a heap delta is taken over.
const instances = 20

// perInstance returns the live heap that build adds per call, over
// instances calls whose results stay live.
func perInstance(build func() any) int64 {
	keep := make([]any, instances)
	before := liveHeap()
	for i := range keep {
		keep[i] = build()
	}
	delta := liveHeap() - before
	runtime.KeepAlive(keep)
	return delta / instances
}

func waxman(t *testing.T, nodes int) *graph.Graph {
	t.Helper()
	g, err := topology.Waxman(topology.WaxmanConfig{Nodes: nodes, AvgDegree: 3, MinDegree: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFreshRouterAt2000Nodes holds a router's fixed state to its own
// links at 2 000 nodes (6 000 links): its link database, built for its
// out-links, holds at most 32 KB, and its link-state view at most 30
// bytes per network link, each the live heap its constructor adds,
// averaged over 20 instances.
func TestFreshRouterAt2000Nodes(t *testing.T) {
	g := waxman(t, 2000)
	node := graph.NodeID(0)
	db := perInstance(func() any {
		db, err := lsdb.NewOwned(g, 100, 1, g.Out(node))
		if err != nil {
			t.Fatal(err)
		}
		return db
	})
	view := perInstance(func() any { return NewLinkStateView(g, 100, 1, DLSR) })
	perLink := float64(view) / float64(g.NumLinks())
	t.Logf("%d links: lsdb %d B, view %d B (%.1f B per link)", g.NumLinks(), db, view, perLink)
	if db > 32<<10 {
		t.Errorf("a fresh router's link database holds %d B, want at most 32 KB", db)
	}
	if perLink > 30 {
		t.Errorf("a fresh view holds %.1f B per link, want at most 30", perLink)
	}
}

// freshRouters returns the live heap a fresh router adds on g, averaged
// over 20 routers of node 0, and their mean Footprint total. Each is
// alone on its switchboard and hellos and refreshes are an hour apart, so
// nothing is queued anywhere.
func freshRouters(t *testing.T, g *graph.Graph) (delta, footprint int64) {
	t.Helper()
	eps := make([]transport.Endpoint, instances)
	for i := range eps {
		mem := transport.NewMem()
		defer mem.Close()
		ep, err := mem.Attach(0)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	routers := make([]*Router, instances)
	before := liveHeap()
	for i := range routers {
		r, err := New(Config{Graph: g, Capacity: 100, UnitBW: 1,
			HelloInterval: time.Hour, HelloMiss: 1, LSInterval: time.Hour}, eps[i])
		if err != nil {
			t.Fatal(err)
		}
		routers[i] = r
	}
	delta = (liveHeap() - before) / instances
	for _, r := range routers {
		footprint += r.Footprint().Total()
		_ = r.Close()
	}
	return delta, footprint / instances
}

// TestRouterFootprintMatchesHeap holds Router.Footprint to the live heap a
// fresh router adds on a 200-node network, net of what a router holds
// whatever the network's size: its record, timers and loop goroutine,
// measured as a fresh router on a one-edge network adds them. What grows
// with the network is the structures Footprint names, within 10 %.
func TestRouterFootprintMatchesHeap(t *testing.T) {
	edge, err := topology.FromEdgeList(2, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	freshRouters(t, edge) // the runtime's one-time timer and goroutine set-up
	fixed, fixedFootprint := freshRouters(t, edge)
	delta, footprint := freshRouters(t, waxman(t, 200))
	t.Logf("fresh router on 600 links: footprint %d B, heap delta %d B; on one edge: footprint %d B, heap delta %d B",
		footprint, delta, fixedFootprint, fixed)
	grown, counted := delta-fixed, footprint-fixedFootprint
	if diff := grown - counted; diff < -counted/10 || diff > counted/10 {
		t.Errorf("a fresh 200-node router adds %d B of live heap past a one-edge router's, its footprint %d B: more than 10 %% apart", grown, counted)
	}
}

// TestClusterAt2000Routers starts one router per node of a 2 000-node
// network over the in-memory transport and holds the cluster to 0.5 GB of
// live heap once constructed. Hellos and refreshes are an hour apart, so
// the first refresh flood is the only traffic. Not under -short, and not
// under the race detector, which multiplies what 2 000 routers hold.
func TestClusterAt2000Routers(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("builds 2 000 routers")
	}
	g := waxman(t, 2000)
	mem := transport.NewMem()
	defer mem.Close()
	before := liveHeap()
	c, err := NewCluster(Config{Graph: g, Capacity: 100, UnitBW: 1,
		HelloInterval: time.Hour, HelloMiss: 1, LSInterval: time.Hour}, mem)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	delta := liveHeap() - before
	var views, trees, dbs int64
	for n := 0; n < c.Size(); n++ {
		f := c.Router(graph.NodeID(n)).Footprint()
		views, trees, dbs = views+f.View, trees+f.FloodTree, dbs+f.DB.Total()
	}
	mb := func(b int64) float64 { return float64(b) / (1 << 20) }
	t.Logf("%d routers: %.1f MB live heap; views %.1f MB, flood trees %.1f MB, databases %.1f MB",
		c.Size(), mb(delta), mb(views), mb(trees), mb(dbs))
	if delta > 512<<20 {
		t.Errorf("a 2 000-router cluster holds %.1f MB of live heap once constructed, want at most 512 MB", mb(delta))
	}
}
