package drtp_test

import (
	"testing"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/rng"
	"github.com/rtcl/drtp/internal/routing"
	"github.com/rtcl/drtp/internal/topology"
)

// establishAllocs is what one D-LSR establishment plus its release
// allocates on a warmed 60-node network: the routes, the connection
// record, its backup list and the map entry. The lifecycle core runs
// inside this count, so an interface call or closure that starts to
// allocate per request shows up here before it shows up in paper_sweep.
const establishAllocs = 6

func TestEstablishAllocs(t *testing.T) {
	g, err := topology.Waxman(topology.WaxmanConfig{Nodes: 60, AvgDegree: 3, MinDegree: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net, err := drtp.NewNetwork(g, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	mgr := drtp.NewManager(net, routing.NewDLSR())
	// Warm up: a background load that stays, so the measured request
	// routes against conflicts and reuses grown buffers.
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
	cycle := func() {
		if _, err := mgr.Establish(req); err != nil {
			failed = err
			return
		}
		if err := mgr.Release(req.ID); err != nil {
			failed = err
		}
	}
	cycle()
	avg := testing.AllocsPerRun(200, cycle)
	if failed != nil {
		t.Fatal(failed)
	}
	if avg != establishAllocs {
		t.Fatalf("Establish+Release allocates %v per request, want %d", avg, establishAllocs)
	}
}
