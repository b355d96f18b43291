package drtp_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/rng"
	"github.com/rtcl/drtp/internal/routing"
	"github.com/rtcl/drtp/internal/telemetry"
	"github.com/rtcl/drtp/internal/topology"
)

// TestAffectedByMatchesScan checks the invariants failure evaluation rests
// on (Manager.Check: the IDs lsdb lists as primaries on a link are exactly
// the connections whose Primary contains it, the establishment order, the
// sweep plan) after every step of a seeded random sequence of
// establishments (some rolled back for lack of a backup), releases,
// destructive link and edge failures (switches, re-protection, reactive
// re-routes, drops) and repairs. At every step affectedBy must return what
// the scan over every connection it replaced returned, in the same order,
// for every link, every edge and 50 random link pairs; and every sweep must
// give, outcome for outcome and event for event, what per-failure
// evaluation on the code path before the sweep plan gives.
func TestAffectedByMatchesScan(t *testing.T) {
	cases := []struct {
		name     string
		nodes    int
		capacity int
		scheme   func() drtp.Scheme
		opts     []drtp.ManagerOption
		// Coverage the case exists for: the run fails when it never
		// happened.
		wantRollback, wantSwitch, wantContention bool
	}{
		{name: "dlsr-k1-lossy-setup", nodes: 30, capacity: 6,
			scheme: func() drtp.Scheme { return routing.NewDLSR() },
			// A lost register round trip leaves the connection without a
			// backup: the reserved primary is rolled back.
			opts:         []drtp.ManagerOption{drtp.WithSignalFaults(0.3, 1, 11)},
			wantRollback: true, wantSwitch: true},
		{name: "dlsr-k2", nodes: 60, capacity: 8,
			scheme:     func() drtp.Scheme { return routing.NewDLSR(routing.WithBackupCount(2)) },
			wantSwitch: true},
		{name: "plsr-k1-reactive", nodes: 40, capacity: 4,
			scheme:     func() drtp.Scheme { return routing.NewPLSR() },
			opts:       []drtp.ManagerOption{drtp.WithOptionalBackup(), drtp.WithReactiveRecovery()},
			wantSwitch: true},
		{name: "nobackup-reactive", nodes: 45, capacity: 4,
			scheme: func() drtp.Scheme { return routing.NewNoBackup() },
			// No backups at all: every recovery is a reactive re-route.
			opts:       []drtp.ManagerOption{drtp.WithOptionalBackup(), drtp.WithReactiveRecovery()},
			wantSwitch: true},
		{name: "dlsr-k2-low-capacity", nodes: 30, capacity: 3,
			scheme: func() drtp.Scheme { return routing.NewDLSR(routing.WithBackupCount(2)) },
			// Spare capped by primaries: activations contend for slots,
			// so a sweep's outcomes depend on the evaluation order and on
			// each failure starting from the untouched slot baseline.
			opts:           []drtp.ManagerOption{drtp.WithOptionalBackup()},
			wantSwitch:     true,
			wantContention: true},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seed := int64(i + 1)
			g, err := topology.Waxman(topology.WaxmanConfig{Nodes: tc.nodes, AvgDegree: 3, MinDegree: 2, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			net, err := drtp.NewNetwork(g, tc.capacity, 1)
			if err != nil {
				t.Fatal(err)
			}
			buf := telemetry.NewBuffer()
			tr := telemetry.NewTracer(buf)
			tr.SetClock(func() float64 { return 0 })
			mgr := drtp.NewManager(net, tc.scheme(), append(tc.opts, drtp.WithTelemetry(tr))...)
			src := rng.New(seed).Split("affected")

			var downEdges []graph.EdgeID
			nextID := drtp.ConnID(1)
			switched, contention := 0, 0
			for step := 0; step < 250; step++ {
				switch p := src.Float64(); {
				case p < 0.60:
					a, b := distinctNodes(src, tc.nodes)
					// Refusals are part of the sequence.
					_, _ = mgr.Establish(drtp.Request{ID: nextID, Src: a, Dst: b})
					nextID++
				case p < 0.75:
					if conns := mgr.Connections(); len(conns) > 0 {
						if err := mgr.Release(conns[src.Intn(len(conns))].ID); err != nil {
							t.Fatal(err)
						}
					}
				case p < 0.83:
					l := graph.LinkID(src.Intn(g.NumLinks()))
					switched += mgr.ApplyLinkFailure(l).Switched
					if e := g.Link(l).Edge; !slices.Contains(downEdges, e) {
						downEdges = append(downEdges, e)
					}
				case p < 0.88:
					e := graph.EdgeID(src.Intn(g.NumEdges()))
					switched += mgr.ApplyEdgeFailure(e).Switched
					if !slices.Contains(downEdges, e) {
						downEdges = append(downEdges, e)
					}
				default:
					if len(downEdges) > 0 {
						k := src.Intn(len(downEdges))
						net.RestoreEdge(downEdges[k])
						downEdges = slices.Delete(downEdges, k, k+1)
					}
				}
				if err := mgr.Check(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				checkAffectedIndex(t, mgr, src, step)
				contention += checkSweeps(t, mgr, buf, int64(step))
				if t.Failed() {
					return
				}
			}
			st := mgr.Stats()
			t.Logf("%d requests, %d accepted, %d register failures, %d rejected without backup, %d switched, %d evaluated activations lost to contention, %d active at the end",
				st.Requests, st.Accepted, st.BackupRegisterFailures, st.RejectedNoBackup, switched, contention, mgr.NumActive())
			if tc.wantRollback && (st.BackupRegisterFailures == 0 || st.RejectedNoBackup == 0) {
				t.Error("no establishment was rolled back for lack of a backup")
			}
			if tc.wantSwitch && switched == 0 {
				t.Error("no connection switched or re-routed")
			}
			if tc.wantContention && contention == 0 {
				t.Error("no evaluated activation lost to contention")
			}
		})
	}
}

// checkAffectedIndex asserts the agreement of affectedBy with the scan
// oracle on the manager's current state.
func checkAffectedIndex(t *testing.T, mgr *drtp.Manager, src *rng.Source, step int) {
	t.Helper()
	g := mgr.Network().Graph()
	agree := func(what string, failed []graph.LinkID, hits func(graph.Path) bool) {
		t.Helper()
		got, want := mgr.AffectedBy(failed), mgr.ScanAffected(hits)
		if !slices.Equal(got, want) {
			t.Errorf("step %d, %s: affectedBy = %v, the scan = %v", step, what, connIDs(got), connIDs(want))
		}
	}
	for l := graph.LinkID(0); int(l) < g.NumLinks(); l++ {
		agree(fmt.Sprintf("link %d", l), []graph.LinkID{l}, func(p graph.Path) bool { return p.Contains(l) })
	}
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		fwd, bwd := g.EdgeLinks(e)
		agree(fmt.Sprintf("edge %d", e), []graph.LinkID{fwd, bwd}, func(p graph.Path) bool { return p.ContainsEdge(g, e) })
	}
	for k := 0; k < 50; k++ {
		a, b := graph.LinkID(src.Intn(g.NumLinks())), graph.LinkID(src.Intn(g.NumLinks()))
		agree(fmt.Sprintf("links %d+%d", a, b), []graph.LinkID{a, b},
			func(p graph.Path) bool { return p.Contains(a) || p.Contains(b) })
	}
}

// checkSweeps compares the sweeps and the single-failure evaluations with
// per-failure evaluation on the code path before the sweep plan
// (EvaluateUnplanned): every link, every edge, and 50 link pairs drawn as
// SweepLinkPairFailures draws them from seed. Outcomes must be equal one
// for one, and the traced streams event for event. It returns the sweeps'
// contention count.
func checkSweeps(t *testing.T, mgr *drtp.Manager, buf *telemetry.Buffer, seed int64) int {
	t.Helper()
	g := mgr.Network().Graph()
	traced := func(run func() []drtp.FailureOutcome) ([]drtp.FailureOutcome, []telemetry.Event) {
		buf.Reset()
		outs := run()
		return outs, buf.Events()
	}
	each := func(n int, eval func(int) drtp.FailureOutcome) func() []drtp.FailureOutcome {
		return func() []drtp.FailureOutcome {
			outs := make([]drtp.FailureOutcome, n)
			for i := range outs {
				outs[i] = eval(i)
			}
			return outs
		}
	}
	contention := 0
	compare := func(what string, oracle func() []drtp.FailureOutcome, runs map[string]func() []drtp.FailureOutcome) {
		t.Helper()
		want, wantEvents := traced(oracle)
		for name, run := range runs {
			got, events := traced(run)
			if !slices.Equal(got, want) {
				for i := range min(len(got), len(want)) {
					if got[i] != want[i] {
						t.Errorf("seed %d, %s %s: failure %d gives %+v, the unplanned evaluation %+v", seed, what, name, i, got[i], want[i])
						break
					}
				}
				if len(got) != len(want) {
					t.Errorf("seed %d, %s %s: %d outcomes, the unplanned evaluation %d", seed, what, name, len(got), len(want))
				}
			}
			if !slices.Equal(events, wantEvents) {
				t.Errorf("seed %d, %s %s: the traced events (%d) differ from the unplanned evaluation's (%d)", seed, what, name, len(events), len(wantEvents))
			}
		}
		for _, o := range want {
			contention += o.Contention
		}
	}

	compare("link", each(g.NumLinks(), func(l int) drtp.FailureOutcome {
		return mgr.EvaluateUnplanned(drtp.FailureOutcome{Link: graph.LinkID(l), Edge: graph.InvalidEdge}, []graph.LinkID{graph.LinkID(l)})
	}), map[string]func() []drtp.FailureOutcome{
		"SweepFailures":       func() []drtp.FailureOutcome { return mgr.SweepFailures(drtp.LinkFailures) },
		"EvaluateLinkFailure": each(g.NumLinks(), func(l int) drtp.FailureOutcome { return mgr.EvaluateLinkFailure(graph.LinkID(l)) }),
	})
	compare("edge", each(g.NumEdges(), func(e int) drtp.FailureOutcome {
		fwd, bwd := g.EdgeLinks(graph.EdgeID(e))
		return mgr.EvaluateUnplanned(drtp.FailureOutcome{Link: graph.InvalidLink, Edge: graph.EdgeID(e)}, []graph.LinkID{fwd, bwd})
	}), map[string]func() []drtp.FailureOutcome{
		"SweepFailures":       func() []drtp.FailureOutcome { return mgr.SweepFailures(drtp.EdgeFailures) },
		"EvaluateEdgeFailure": each(g.NumEdges(), func(e int) drtp.FailureOutcome { return mgr.EvaluateEdgeFailure(graph.EdgeID(e)) }),
	})

	const samples = 50
	pairs := make([][]graph.LinkID, samples)
	draw := rng.New(seed)
	for i := range pairs {
		a, b := distinctNodes(draw, g.NumLinks())
		pairs[i] = []graph.LinkID{graph.LinkID(a), graph.LinkID(b)}
	}
	compare("link pair", each(samples, func(i int) drtp.FailureOutcome {
		return mgr.EvaluateUnplanned(drtp.FailureOutcome{Link: graph.InvalidLink, Edge: graph.InvalidEdge}, pairs[i])
	}), map[string]func() []drtp.FailureOutcome{
		"SweepLinkPairFailures":    func() []drtp.FailureOutcome { return mgr.SweepLinkPairFailures(samples, seed) },
		"EvaluateMultiLinkFailure": each(samples, func(i int) drtp.FailureOutcome { return mgr.EvaluateMultiLinkFailure(pairs[i]) }),
	})
	return contention
}

// distinctNodes draws a uniform ordered pair of different nodes.
func distinctNodes(src *rng.Source, n int) (graph.NodeID, graph.NodeID) {
	a := src.Intn(n)
	b := src.Intn(n - 1)
	if b >= a {
		b++
	}
	return graph.NodeID(a), graph.NodeID(b)
}

func connIDs(conns []*drtp.Connection) []drtp.ConnID {
	ids := make([]drtp.ConnID, len(conns))
	for i, c := range conns {
		ids[i] = c.ID
	}
	return ids
}

// TestAffectedBySkipsForeignIDs: a primary reserved straight on the
// database under an ID the manager does not own (the bench's write probes
// do this) is not a connection of the manager, so a failure of its link
// does not count it — as the scan over the manager's connections never did.
func TestAffectedBySkipsForeignIDs(t *testing.T) {
	net := thetaNetwork(t, 10)
	mgr := drtp.NewManager(net, fixedScheme{routes: map[drtp.ConnID]drtp.Route{
		1: drtp.WithBackup(pathOf(t, net, 0, 1), pathOf(t, net, 0, 2, 1)),
	}})
	if _, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	l01, _ := net.Graph().LinkBetween(0, 1)
	l02, _ := net.Graph().LinkBetween(0, 2)
	foreign := drtp.ConnID(math.MaxInt64)
	for _, l := range []graph.LinkID{l01, l02} {
		if err := net.DB().ReservePrimary(foreign, l); err != nil {
			t.Fatal(err)
		}
	}
	if out := mgr.EvaluateLinkFailure(l01); out.Affected != 1 || out.Recovered != 1 {
		t.Errorf("failure of the shared link: %+v, want the manager's one connection affected and recovered", out)
	}
	if out := mgr.EvaluateLinkFailure(l02); out.Affected != 0 {
		t.Errorf("failure of a link only the foreign primary crosses: %+v, want nothing affected", out)
	}
	if out := mgr.ApplyLinkFailure(l02); out.Affected != 0 {
		t.Errorf("destructive failure of that link: %+v, want nothing affected", out)
	}
}

// TestEvaluateFailureAllocs pins the steady state of a failure sweep: with
// the scratch buffers warm and the tracer off, evaluating a link, an edge
// or a link-pair failure allocates nothing.
func TestEvaluateFailureAllocs(t *testing.T) {
	g, err := topology.Waxman(topology.WaxmanConfig{Nodes: 30, AvgDegree: 3, MinDegree: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net, err := drtp.NewNetwork(g, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	mgr := drtp.NewManager(net, routing.NewDLSR())
	src := rng.New(1)
	for id := drtp.ConnID(1); id <= 120; id++ {
		a, b := distinctNodes(src, g.NumNodes())
		_, _ = mgr.Establish(drtp.Request{ID: id, Src: a, Dst: b})
	}
	affected := 0
	for _, o := range mgr.SweepFailures(drtp.LinkFailures) { // warms the scratch
		affected += o.Affected
	}
	mgr.SweepFailures(drtp.EdgeFailures)
	if affected == 0 {
		t.Fatal("no failure affects any connection: the sweep exercises nothing")
	}
	if n := testing.AllocsPerRun(20, func() {
		for l := 0; l < g.NumLinks(); l++ {
			mgr.EvaluateLinkFailure(graph.LinkID(l))
		}
	}); n != 0 {
		t.Errorf("EvaluateLinkFailure over every link: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		for e := 0; e < g.NumEdges(); e++ {
			mgr.EvaluateEdgeFailure(graph.EdgeID(e))
		}
	}); n != 0 {
		t.Errorf("EvaluateEdgeFailure over every edge: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		for l := 1; l < g.NumLinks(); l++ {
			mgr.EvaluateMultiLinkFailure([]graph.LinkID{graph.LinkID(l - 1), graph.LinkID(l)})
		}
	}); n != 0 {
		t.Errorf("EvaluateMultiLinkFailure over adjacent link pairs: %v allocs, want 0", n)
	}
}
