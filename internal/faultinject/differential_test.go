package faultinject_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/rng"
	"github.com/rtcl/drtp/internal/router"
	"github.com/rtcl/drtp/internal/routing"
	"github.com/rtcl/drtp/internal/topology"
	"github.com/rtcl/drtp/internal/transport"
)

// The differential run feeds one seeded request/release sequence, then one
// edge failure, through the simulator stack (drtp.Manager under D-LSR or
// P-LSR) and through an in-memory router cluster in lock step, and
// requires the two implementations of the protocol to agree on everything
// both expose: admissions, routes, per-link state, recovery outcomes,
// re-protection, and a clean network once every connection is released.

// diffCapacity saturates the bridge after four connections in one
// direction (each holds one primary and one spare unit there), so the
// sequence sees rejections, while the mesh links stay far from full and
// no activation contends.
const diffCapacity = 8

// diffMesh is the number of nodes the seeded sequence connects: node 0
// hangs off the bridge 0-1, so every backup of a connection from or to
// node 0 overlaps its primary there; nodes 1..9 form a ring with chords.
const diffMesh = 10

// Nodes 10..13 form a pendant theta behind the bridge 9-10, which no route
// between mesh nodes can use: 10 reaches 11 directly, via 12 and via 13
// and by nothing else, so once 10-11 fails the switch and the
// re-protection of a connection 10 -> 11 are forced.
const thetaA, thetaB = graph.NodeID(10), graph.NodeID(11)

func diffFixture(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := topology.FromEdgeList(14, [][2]int{
		{0, 1},
		{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}, {9, 1},
		{1, 5}, {2, 7}, {3, 8}, {4, 9}, {6, 9},
		{9, 10}, {10, 11}, {10, 12}, {12, 11}, {10, 13}, {13, 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// diffPair is the two stacks under comparison.
type diffPair struct {
	g   *graph.Graph
	mgr *drtp.Manager
	c   *router.Cluster
	// down marks the links failed on both stacks: their owners advertise
	// them empty, whatever their databases hold.
	down map[graph.LinkID]bool
}

// settle waits until the cluster has caught up with the simulator: every
// link's owning router holds the simulator's PrimeBW/SpareBW/APLVNorm and
// every router's view shows what the owner advertises. Release signalling,
// re-protection and link-state flooding are asynchronous, so this runs
// between operations; it is also the per-link state assertion.
func (p *diffPair) settle(t *testing.T, what string) {
	t.Helper()
	sim := p.mgr.Network().DB()
	var diff string
	converged := func() bool {
		for i := 0; i < p.g.NumLinks(); i++ {
			l := graph.LinkID(i)
			owner := p.c.Router(p.g.Link(l).From)
			own := owner.DB()
			if own.PrimeBW(l) != sim.PrimeBW(l) || own.SpareBW(l) != sim.SpareBW(l) || own.APLVNorm(l) != sim.APLVNorm(l) {
				diff = fmt.Sprintf("link %d: router prime/spare/norm %d/%d/%d, simulator %d/%d/%d", l,
					own.PrimeBW(l), own.SpareBW(l), own.APLVNorm(l), sim.PrimeBW(l), sim.SpareBW(l), sim.APLVNorm(l))
				return false
			}
			prim, backup, norm := owner.View(l)
			if !p.down[l] && (prim != own.FreeBW(l) || backup != own.AvailableForBackup(l) || norm != own.APLVNorm(l)) {
				diff = fmt.Sprintf("link %d: owner views %d/%d/%d, holds %d/%d/%d", l, prim, backup, norm,
					own.FreeBW(l), own.AvailableForBackup(l), own.APLVNorm(l))
				return false
			}
			for n := 0; n < p.c.Size(); n++ {
				if vp, vb, vn := p.c.Router(graph.NodeID(n)).View(l); vp != prim || vb != backup || vn != norm {
					diff = fmt.Sprintf("link %d: router %d views %d/%d/%d, owner advertises %d/%d/%d", l, n, vp, vb, vn, prim, backup, norm)
					return false
				}
			}
		}
		return true
	}
	for i := 0; !converged(); i++ {
		if i == 4000 { // 8s budget at 2ms per poll
			t.Fatalf("%s: stacks did not converge: %s", what, diff)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// nodeRoutes renders paths as node lists.
func nodeRoutes(g *graph.Graph, ps []graph.Path) [][]graph.NodeID {
	var out [][]graph.NodeID
	for _, p := range ps {
		out = append(out, p.Nodes(g))
	}
	return out
}

// establish requests one connection on both stacks and compares the
// decision and, when admitted, the routes.
func (p *diffPair) establish(t *testing.T, id lsdb.ConnID, src, dst graph.NodeID) bool {
	t.Helper()
	conn, simErr := p.mgr.Establish(drtp.Request{ID: id, Src: src, Dst: dst})
	info, rtrErr := p.c.Router(src).Establish(id, dst)
	if (simErr == nil) != (rtrErr == nil) {
		t.Fatalf("conn %d (%d->%d): simulator says %v, router says %v", id, src, dst, simErr, rtrErr)
	}
	if simErr != nil {
		return false
	}
	if want := conn.Primary.Nodes(p.g); !reflect.DeepEqual(info.Primary, want) {
		t.Fatalf("conn %d (%d->%d): primary %v, simulator %v", id, src, dst, info.Primary, want)
	}
	if want := nodeRoutes(p.g, conn.Backups); !reflect.DeepEqual(info.Backups, want) {
		t.Fatalf("conn %d (%d->%d): backups %v, simulator %v", id, src, dst, info.Backups, want)
	}
	return true
}

// fail fails the edge u-v on both stacks.
func (p *diffPair) fail(u, v graph.NodeID) drtp.RecoveryOutcome {
	l, _ := p.g.LinkBetween(u, v)
	r, _ := p.g.LinkBetween(v, u)
	p.down[l], p.down[r] = true, true
	out := p.mgr.ApplyEdgeFailure(p.g.Link(l).Edge)
	p.c.FailEdge(u, v)
	return out
}

// live is a connection admitted on both stacks.
type live struct {
	id      lsdb.ConnID
	src     graph.NodeID
	primary []graph.NodeID
}

// recovered waits for every connection the failure hit to end on the
// router as it did in the simulator — dropped, or switched onto the same
// primary — and for each survivor's re-protection to finish with as many
// backups as the simulator registered. exact also requires the same
// backup routes: it holds only where the re-protection is forced, since
// several connections switching at once route on views that trail the
// owners by hold-down plus flood time.
func (p *diffPair) recovered(t *testing.T, conns []live, exact bool) {
	t.Helper()
	for _, a := range conns {
		want := "intact"
		var wantPrimary []graph.NodeID
		var wantBackups [][]graph.NodeID
		conn, ok := p.mgr.Get(a.id)
		if !ok {
			want = "dropped"
		} else if wantPrimary, wantBackups = conn.Primary.Nodes(p.g), nodeRoutes(p.g, conn.Backups); !reflect.DeepEqual(wantPrimary, a.primary) {
			want = "switched"
		}
		var info router.ConnInfo
		defer func() {
			if t.Failed() {
				t.Logf("conn %d: router holds %+v; simulator backups %v", a.id, info, wantBackups)
			}
		}()
		waitCond(t, fmt.Sprintf("conn %d to end %s with %d backups", a.id, want, len(wantBackups)), func() bool {
			info, _ = p.c.Router(a.src).Conn(a.id)
			switch want {
			case "dropped":
				return info.Dead
			case "switched":
				return info.Switched && len(info.Backups) == len(wantBackups) &&
					(!exact || reflect.DeepEqual(info.Backups, wantBackups))
			}
			return true
		})
		got := "intact"
		switch {
		case info.Dead:
			got = "dropped"
		case info.Switched:
			got = "switched"
		}
		if got != want || (want != "dropped" && !reflect.DeepEqual(info.Primary, wantPrimary)) {
			t.Fatalf("conn %d: router %s on %v, simulator %s on %v", a.id, got, info.Primary, want, wantPrimary)
		}
	}
}

// releaseAll releases every connection still live on either stack and
// requires both networks to hold nothing any more.
func (p *diffPair) releaseAll(t *testing.T, conns []live) {
	t.Helper()
	for _, a := range conns {
		if _, ok := p.mgr.Get(a.id); ok {
			if err := p.mgr.Release(a.id); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := p.c.Router(a.src).Conn(a.id); ok {
			if err := p.c.Router(a.src).Release(a.id); err != nil {
				t.Fatal(err)
			}
		}
	}
	sim := p.mgr.Network().DB()
	for i := 0; i < p.g.NumLinks(); i++ {
		if l := graph.LinkID(i); sim.PrimeBW(l) != 0 || sim.SpareBW(l) != 0 || sim.APLVNorm(l) != 0 {
			t.Fatalf("simulator link %d after releasing everything: prime/spare/norm %d/%d/%d",
				l, sim.PrimeBW(l), sim.SpareBW(l), sim.APLVNorm(l))
		}
	}
	p.settle(t, "after releasing everything")
}

func TestConformanceDifferential(t *testing.T) {
	schemes := []struct {
		name   string
		sim    func(...routing.Option) drtp.Scheme
		router router.BackupScheme
	}{
		{"D-LSR", func(o ...routing.Option) drtp.Scheme { return routing.NewDLSR(o...) }, router.DLSR},
		{"P-LSR", func(o ...routing.Option) drtp.Scheme { return routing.NewPLSR(o...) }, router.PLSR},
	}
	// The mesh failure hits the second hop of a connection from node 0, so
	// the survivors switch and that one activates over the shared bridge
	// link; the bridge failure takes primary and backup together, so
	// everything crossing it is dropped; the single failure switches one
	// connection of the pendant theta, whose re-protection is forced.
	for _, backups := range []int{1, 2} {
		for _, failure := range []string{"mesh", "bridge", "single"} {
			for _, sc := range schemes {
				name := sc.name + "/" + failure
				if backups > 1 {
					name = fmt.Sprintf("%s-k%d/%s", sc.name, backups, failure)
				}
				t.Run(name, func(t *testing.T) {
					runDifferential(t, sc.sim(routing.WithBackupCount(backups)), sc.router, backups, failure)
				})
			}
		}
	}
}

func runDifferential(t *testing.T, scheme drtp.Scheme, rs router.BackupScheme, backups int, failure string) {
	g := diffFixture(t)
	net, err := drtp.NewNetwork(g, diffCapacity, 1)
	if err != nil {
		t.Fatal(err)
	}
	mem := transport.NewMem()
	// Failures are injected, never detected: the hello deadline is far
	// beyond any scheduling stall, so no adjacency flaps.
	c, err := router.NewCluster(router.Config{
		Graph:         g,
		Capacity:      diffCapacity,
		UnitBW:        1,
		Scheme:        rs,
		Backups:       backups,
		HelloInterval: 50 * time.Millisecond,
		HelloMiss:     100,
		LSInterval:    20 * time.Millisecond,
		SetupTimeout:  5 * time.Second,
	}, mem)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		_ = mem.Close()
	})
	p := &diffPair{g: g, mgr: drtp.NewManager(net, scheme), c: c, down: map[graph.LinkID]bool{}}

	// Phase 1: the seeded sequence over the mesh. A third of the requests
	// start at node 0 to load the bridge.
	var (
		active   []live
		rejected int
		r        = rng.New(7)
		next     = lsdb.ConnID(1)
	)
	for step := 0; step < 40; step++ {
		if len(active) > 0 && r.Float64() < 0.25 {
			i := r.Intn(len(active))
			if err := p.mgr.Release(active[i].id); err != nil {
				t.Fatal(err)
			}
			if err := c.Router(active[i].src).Release(active[i].id); err != nil {
				t.Fatal(err)
			}
			active = append(active[:i], active[i+1:]...)
		} else {
			src := graph.NodeID(r.Intn(diffMesh))
			if r.Float64() < 0.3 {
				src = 0
			}
			dst := graph.NodeID(r.Intn(diffMesh - 1))
			if dst >= src {
				dst++
			}
			if p.establish(t, next, src, dst) {
				conn, _ := p.mgr.Get(next)
				active = append(active, live{id: next, src: src, primary: conn.Primary.Nodes(g)})
			} else {
				rejected++
			}
			next++
		}
		p.settle(t, fmt.Sprintf("step %d", step))
	}
	if rejected == 0 || len(active) < 8 {
		t.Fatalf("sequence too tame: %d rejected, %d active", rejected, len(active))
	}
	full := 0
	for _, a := range active {
		if conn, _ := p.mgr.Get(a.id); len(conn.Backups) == backups {
			full++
		}
	}
	if full == 0 {
		t.Fatalf("no live connection holds %d backups", backups)
	}

	// Phase 2: one edge failure, applied to both stacks.
	switch failure {
	case "mesh", "bridge":
		u, v := graph.NodeID(0), graph.NodeID(1)
		if failure == "mesh" {
			for _, a := range active {
				if a.src == 0 && len(a.primary) > 2 { // crosses the bridge, then the mesh
					u, v = a.primary[1], a.primary[2]
					break
				}
			}
			if u == 0 {
				t.Fatal("no connection from node 0 crosses the mesh")
			}
		}
		out := p.fail(u, v)
		if out.Affected == 0 || (failure == "mesh") != (out.Dropped == 0) || (failure == "bridge") != (out.Switched == 0) {
			t.Fatalf("%s failure %d-%d: simulator outcome %+v", failure, u, v, out)
		}
		t.Logf("%d admitted and live, %d rejected; failing %d-%d: %+v", len(active), rejected, u, v, out)
		p.recovered(t, active, false)
	case "single":
		if !p.establish(t, next, thetaA, thetaB) {
			t.Fatalf("conn %d (%d->%d) refused", next, thetaA, thetaB)
		}
		theta := live{id: next, src: thetaA, primary: []graph.NodeID{thetaA, thetaB}}
		active = append(active, theta)
		p.settle(t, "theta connection")
		if out := p.fail(thetaA, thetaB); out.Affected != 1 || out.Switched != 1 {
			t.Fatalf("single failure: simulator outcome %+v", out)
		}
		p.recovered(t, []live{theta}, true)
		p.settle(t, "after the switch")
	}
	p.releaseAll(t, active)
}
