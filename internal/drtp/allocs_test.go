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

// paperLoad is a D-LSR manager on a 60-node Waxman network of degree 3
// at Table 1's capacity of 40 units per link, loaded as the paper's
// λ = 0.5 steady state is: 60·λ arrivals a minute with a mean lifetime of
// 40 minutes keep about 1 200 requests alive, so 1 200 are offered
// (refusals included).
func paperLoad(tb testing.TB) *drtp.Manager {
	tb.Helper()
	g, err := topology.Waxman(topology.WaxmanConfig{Nodes: 60, AvgDegree: 3, MinDegree: 2, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	net, err := drtp.NewNetwork(g, 40, 1)
	if err != nil {
		tb.Fatal(err)
	}
	mgr := drtp.NewManager(net, routing.NewDLSR())
	src := rng.New(1)
	for id := drtp.ConnID(1); id <= 1200; id++ {
		a, b := distinctNodes(src, g.NumNodes())
		_, _ = mgr.Establish(drtp.Request{ID: id, Src: a, Dst: b})
	}
	return mgr
}

// TestSweepFailuresAllocs pins a whole sweep's allocations: with the
// evaluation scratch warm, SweepFailures allocates only the outcomes it
// returns, under either failure model.
func TestSweepFailuresAllocs(t *testing.T) {
	mgr := paperLoad(t)
	for _, model := range []drtp.FailureModel{drtp.LinkFailures, drtp.EdgeFailures} {
		ft, ok := drtp.FaultTolerance(mgr.SweepFailures(model)) // warms the scratch
		if !ok || ft == 1 {
			t.Fatalf("%v sweep: P_act-bk %v (defined %v), want some affected connection left unrecovered", model, ft, ok)
		}
		if n := testing.AllocsPerRun(20, func() { mgr.SweepFailures(model) }); n != 1 {
			t.Errorf("%v sweep: %v allocs, want 1 (the outcomes)", model, n)
		}
	}
}

// BenchmarkSweepFailures is the failure-evaluation layer's home: one
// single-link sweep over the paper's 60-node network at its λ = 0.5
// steady-state load, as every sampled epoch of Figures 4 and 5 runs it.
func BenchmarkSweepFailures(b *testing.B) {
	mgr := paperLoad(b)
	affected := 0
	for _, o := range mgr.SweepFailures(drtp.LinkFailures) {
		affected += o.Affected
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		mgr.SweepFailures(drtp.LinkFailures)
	}
	b.ReportMetric(float64(affected), "affected/op")
}
