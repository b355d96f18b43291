package routing_test

import (
	"fmt"
	"testing"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/flood"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/routing"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/topology"
)

// TestBackupInvariantsRandomTopologies replays random traffic on
// randomized Waxman and Barabási–Albert topologies and asserts, for all
// three of the paper's schemes, the structural invariants every
// established DR-connection and every link must satisfy:
//
//  1. the backup channel is link-disjoint from its primary. For the
//     link-state schemes the overlap escape hatch (the Q penalty's "last
//     resort") may only fire when no disjoint feasible path exists at
//     all. BF promises less: it picks the minimally-overlapping shortest
//     remainder from a hop-bounded flood (hc_limit = Rho*D + P), so its
//     backup may overlap even when a disjoint detour exists outside the
//     flood's reach — there we assert the backup differs from the
//     primary and respects the hop bound;
//  2. each link's spare reservation covers max_j APLV[j] activations
//     (capped at the capacity left beside the primaries), the paper's
//     backup-multiplexing sizing rule.
func TestBackupInvariantsRandomTopologies(t *testing.T) {
	type topo struct {
		name string
		gen  func(seed int64) (*graph.Graph, error)
	}
	topos := []topo{
		{name: "waxman", gen: func(seed int64) (*graph.Graph, error) {
			return topology.Waxman(topology.WaxmanConfig{
				Nodes: 24, AvgDegree: 3, MinDegree: 2, Seed: seed,
			})
		}},
		{name: "barabasi", gen: func(seed int64) (*graph.Graph, error) {
			return topology.BarabasiAlbert(topology.BarabasiAlbertConfig{
				Nodes: 24, M: 2, Seed: seed,
			})
		}},
	}
	schemes := []struct {
		name string
		new  func() drtp.Scheme
		// strictDisjoint: overlap allowed only when no disjoint feasible
		// path exists at all. False for BF, whose hop-bounded flood may
		// never see the disjoint detour.
		strictDisjoint bool
	}{
		{name: "P-LSR", new: func() drtp.Scheme { return routing.NewPLSR() }, strictDisjoint: true},
		{name: "D-LSR", new: func() drtp.Scheme { return routing.NewDLSR() }, strictDisjoint: true},
		{name: "BF", new: func() drtp.Scheme { return flood.NewDefault() }},
	}
	for _, tp := range topos {
		for seed := int64(1); seed <= 3; seed++ {
			g, err := tp.gen(seed)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := scenario.Generate(scenario.Config{
				Nodes: g.NumNodes(), Lambda: 0.25, Duration: 80, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range schemes {
				t.Run(fmt.Sprintf("%s/seed%d/%s", tp.name, seed, s.name), func(t *testing.T) {
					checkInvariants(t, g, s.new(), sc, s.strictDisjoint)
				})
			}
		}
	}
}

// checkInvariants replays the scenario's establish/release sequence and
// verifies both invariants after every accepted connection.
func checkInvariants(t *testing.T, g *graph.Graph, schm drtp.Scheme, sc *scenario.Scenario, strictDisjoint bool) {
	t.Helper()
	net, err := drtp.NewNetwork(g, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	fp := flood.DefaultParams()
	mgr := drtp.NewManager(net, schm)
	accepted := 0
	for _, ev := range sc.Events {
		switch ev.Kind {
		case scenario.Arrival:
			conn, err := mgr.Establish(drtp.Request{ID: ev.Conn, Src: ev.Src, Dst: ev.Dst})
			if err != nil {
				continue
			}
			accepted++
			for _, backup := range conn.Backups {
				shared := backup.SharedLinks(conn.Primary)
				if !strictDisjoint {
					// BF: the backup must at least differ from the primary
					// and stay within the flood's hop limit Rho*D + P,
					// where D is the live-topology hop distance.
					if shared == backup.Hops() && backup.Hops() == conn.Primary.Hops() {
						t.Fatalf("conn %d: BF backup %v is identical to primary %v",
							ev.Conn, backup.Links(), conn.Primary.Links())
					}
					d := hopDistance(net, ev.Src, ev.Dst)
					if limit := int(fp.Rho*float64(d)) + fp.P; backup.Hops() > limit {
						t.Fatalf("conn %d: BF backup %v has %d hops, beyond hc_limit %d (D=%d)",
							ev.Conn, backup.Links(), backup.Hops(), limit, d)
					}
					continue
				}
				if shared == 0 {
					continue
				}
				// Overlap is legitimate only when no disjoint feasible
				// path existed (e.g. the primary crosses a bridge).
				if disjointFeasiblePathExists(net, conn.Primary, ev.Src, ev.Dst) {
					t.Fatalf("conn %d: backup %v overlaps primary %v although a disjoint feasible path exists",
						ev.Conn, backup.Links(), conn.Primary.Links())
				}
			}
			checkSpareCoversAPLV(t, net)
		case scenario.Departure:
			if _, active := mgr.Get(ev.Conn); active {
				if err := mgr.Release(ev.Conn); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no connections accepted; invariants never exercised")
	}
	checkSpareCoversAPLV(t, net)
}

// disjointFeasiblePathExists reports whether a backup route disjoint from
// the primary existed under the schemes' own feasibility rules (live
// links with backup bandwidth for one more unit).
func disjointFeasiblePathExists(net *drtp.Network, primary graph.Path, src, dst graph.NodeID) bool {
	onPrimary := primary.LinkSet()
	unit := net.UnitBW()
	db := net.DB()
	cost := func(l graph.LinkID) float64 {
		if net.LinkFailed(l) {
			return graph.Unreachable
		}
		if _, ok := onPrimary[l]; ok {
			return graph.Unreachable
		}
		if db.AvailableForBackup(l) < unit {
			return graph.Unreachable
		}
		return 1
	}
	_, total := new(graph.Scratch).ShortestPath(net.Graph(), src, dst, cost)
	return total != graph.Unreachable
}

// hopDistance is the minimum live-topology hop count between two nodes,
// the D in BF's hc_limit = Rho*D + P.
func hopDistance(net *drtp.Network, src, dst graph.NodeID) int {
	cost := func(l graph.LinkID) float64 {
		if net.LinkFailed(l) {
			return graph.Unreachable
		}
		return 1
	}
	path, total := new(graph.Scratch).ShortestPath(net.Graph(), src, dst, cost)
	if total == graph.Unreachable {
		return 0
	}
	return path.Hops()
}

// checkSpareCoversAPLV asserts the multiplexed spare-sizing rule on every
// link: spare = max_j APLV[j] * unitBW, capped at capacity - prime.
func checkSpareCoversAPLV(t *testing.T, net *drtp.Network) {
	t.Helper()
	db := net.DB()
	unit := db.UnitBW()
	for l := 0; l < db.NumLinks(); l++ {
		lid := graph.LinkID(l)
		required := db.APLVMax(lid) * unit
		if room := db.Capacity(lid) - db.PrimeBW(lid); required > room {
			required = room
		}
		if spare := db.SpareBW(lid); spare != required {
			t.Fatalf("link %d: spare %d does not cover max APLV requirement %d (APLVMax=%d, capacity=%d, prime=%d)",
				l, spare, required, db.APLVMax(lid), db.Capacity(lid), db.PrimeBW(lid))
		}
	}
}
