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
// both expose: admissions, routes, per-link state, recovery outcomes.

// diffCapacity saturates the bridge after four connections in one
// direction (each holds one primary and one spare unit there), so the
// sequence sees rejections, while the mesh links stay far from full and
// no activation contends.
const diffCapacity = 8

// diffFixture is a 10-node network: node 0 hangs off the bridge 0-1, so
// every backup of a connection from or to node 0 overlaps its primary
// there; nodes 1..9 form a ring with chords.
func diffFixture(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := topology.FromEdgeList(10, [][2]int{
		{0, 1},
		{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}, {9, 1},
		{1, 5}, {2, 7}, {3, 8}, {4, 9}, {6, 9},
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
}

// settle waits until the cluster has caught up with the simulator: every
// link's owning router holds the simulator's PrimeBW/SpareBW/APLVNorm and
// every router's view shows the owner's figures. Release signalling and
// link-state flooding are asynchronous, so this runs between operations;
// it is also the per-link state assertion.
func (p *diffPair) settle(t *testing.T, what string) {
	t.Helper()
	sim := p.mgr.Network().DB()
	var diff string
	converged := func() bool {
		for i := 0; i < p.g.NumLinks(); i++ {
			l := graph.LinkID(i)
			own := p.c.Router(p.g.Link(l).From).DB()
			if own.PrimeBW(l) != sim.PrimeBW(l) || own.SpareBW(l) != sim.SpareBW(l) || own.APLVNorm(l) != sim.APLVNorm(l) {
				diff = fmt.Sprintf("link %d: router prime/spare/norm %d/%d/%d, simulator %d/%d/%d", l,
					own.PrimeBW(l), own.SpareBW(l), own.APLVNorm(l), sim.PrimeBW(l), sim.SpareBW(l), sim.APLVNorm(l))
				return false
			}
			prim, backup, norm := own.AvailableForPrimary(l), own.AvailableForBackup(l), own.APLVNorm(l)
			for n := 0; n < p.c.Size(); n++ {
				if vp, vb, vn := p.c.Router(graph.NodeID(n)).View(l); vp != prim || vb != backup || vn != norm {
					diff = fmt.Sprintf("link %d: router %d views %d/%d/%d, owner has %d/%d/%d", l, n, vp, vb, vn, prim, backup, norm)
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
	if want := conn.Backup().Nodes(p.g); !reflect.DeepEqual(info.Backup, want) {
		t.Fatalf("conn %d (%d->%d): backup %v, simulator %v", id, src, dst, info.Backup, want)
	}
	return true
}

func TestConformanceDifferential(t *testing.T) {
	schemes := []struct {
		name   string
		sim    func() drtp.Scheme
		router router.BackupScheme
	}{
		{"D-LSR", func() drtp.Scheme { return routing.NewDLSR() }, router.DLSR},
		{"P-LSR", func() drtp.Scheme { return routing.NewPLSR() }, router.PLSR},
	}
	// The mesh failure hits the second hop of a connection from node 0, so
	// the survivors switch and that one activates over the shared bridge
	// link; the bridge failure takes primary and backup together, so
	// everything crossing it is dropped.
	for _, failure := range []string{"mesh", "bridge"} {
		for _, sc := range schemes {
			t.Run(sc.name+"/"+failure, func(t *testing.T) {
				g := diffFixture(t)
				net, err := drtp.NewNetwork(g, diffCapacity, 1)
				if err != nil {
					t.Fatal(err)
				}
				mem := transport.NewMem()
				// Failures are injected, never detected: the hello deadline is
				// far beyond any scheduling stall, so no adjacency flaps.
				c, err := router.NewCluster(router.Config{
					Graph:         g,
					Capacity:      diffCapacity,
					UnitBW:        1,
					Scheme:        sc.router,
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
				p := &diffPair{g: g, mgr: drtp.NewManager(net, sc.sim()), c: c}

				// Phase 1: the seeded sequence. A third of the requests
				// start at node 0 to load the bridge.
				type live struct {
					id      lsdb.ConnID
					src     graph.NodeID
					primary []graph.NodeID
				}
				var (
					active   []live
					rejected int
					r        = rng.New(7)
				)
				for step, next := 0, lsdb.ConnID(1); step < 40; step++ {
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
						src := graph.NodeID(r.Intn(g.NumNodes()))
						if r.Float64() < 0.3 {
							src = 0
						}
						dst := graph.NodeID(r.Intn(g.NumNodes() - 1))
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

				// Phase 2: one edge failure, applied to both stacks.
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
				l, _ := g.LinkBetween(u, v)
				out := p.mgr.ApplyEdgeFailure(g.Link(l).Edge)
				if out.Affected == 0 || (failure == "mesh") != (out.Dropped == 0) || (failure == "bridge") != (out.Switched == 0) {
					t.Fatalf("%s failure %d-%d: simulator outcome %+v", failure, u, v, out)
				}
				t.Logf("%d admitted and live, %d rejected; failing %d-%d: %+v", len(active), rejected, u, v, out)
				c.FailEdge(u, v)
				for _, a := range active {
					want := "intact"
					var wantPrimary []graph.NodeID
					if conn, ok := p.mgr.Get(a.id); !ok {
						want = "dropped"
					} else if wantPrimary = conn.Primary.Nodes(g); !reflect.DeepEqual(wantPrimary, a.primary) {
						want = "switched"
					}
					var info router.ConnInfo
					waitCond(t, fmt.Sprintf("conn %d to end %s", a.id, want), func() bool {
						info, _ = c.Router(a.src).Conn(a.id)
						return want == "intact" || info.Switched || info.Dead
					})
					got := "intact"
					switch {
					case info.Dead:
						got = "dropped"
					case info.Switched:
						got = "switched"
					}
					if got != want || (want != "dropped" && !reflect.DeepEqual(info.Primary, wantPrimary)) {
						t.Fatalf("conn %d after the %d-%d failure: router %s on %v, simulator %s on %v",
							a.id, u, v, got, info.Primary, want, wantPrimary)
					}
				}
			})
		}
	}
}
