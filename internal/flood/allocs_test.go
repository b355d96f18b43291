package flood_test

import (
	"testing"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/flood"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/rng"
	"github.com/rtcl/drtp/internal/topology"
)

// routeAllocs is what one bounded-flooding route allocates on a warmed
// 60-node network. Nearly all of it is the candidate routes that reach the
// destination's CRT (five for this request), each built by
// graph.PathFromNodes. The flood itself runs on the scheme's reused
// scratch (hop queue, node chains, per-node minimum distances), so a
// per-copy allocation creeping into it shows up here first.
const routeAllocs = 11

func TestRouteAllocs(t *testing.T) {
	g, err := topology.Waxman(topology.WaxmanConfig{Nodes: 60, AvgDegree: 3, MinDegree: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net, err := drtp.NewNetwork(g, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	bf := flood.NewDefault()
	mgr := drtp.NewManager(net, bf)
	// Warm up: a background load that stays, so the measured request
	// floods against reservations and reuses grown buffers.
	src := rng.New(1)
	for id := drtp.ConnID(1); id <= 300; id++ {
		s := graph.NodeID(src.Intn(g.NumNodes()))
		d := graph.NodeID(src.Intn(g.NumNodes() - 1))
		if d >= s {
			d++
		}
		_, _ = mgr.Establish(drtp.Request{ID: id, Src: s, Dst: d})
	}
	req := drtp.Request{ID: 1000, Src: 0, Dst: graph.NodeID(g.NumNodes() - 1)}
	var failed error
	route := func() {
		if _, err := bf.Route(net, req); err != nil {
			failed = err
		}
	}
	route()
	avg := testing.AllocsPerRun(200, route)
	if failed != nil {
		t.Fatal(failed)
	}
	if avg != routeAllocs {
		t.Fatalf("BF Route allocates %v per request, want %d", avg, routeAllocs)
	}
}
