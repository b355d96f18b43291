package faultinject_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/faultinject"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/rng"
	"github.com/rtcl/drtp/internal/router"
	"github.com/rtcl/drtp/internal/routing"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/sim"
	"github.com/rtcl/drtp/internal/telemetry"
	"github.com/rtcl/drtp/internal/topology"
	"github.com/rtcl/drtp/internal/transport"
)

// randomSchedule derives a random-but-reproducible chaos script for g
// from the seed: lossy signalling, one crash, one partition and one edge
// fault, all inside the scenario horizon.
func randomSchedule(g *graph.Graph, seed int64, horizon float64) *faultinject.Schedule {
	src := rng.New(seed).Split("chaos")
	at := func(lo, hi float64) float64 { return lo + (hi-lo)*src.Float64() }
	crashNode := src.Intn(g.NumNodes())
	crashAt := at(0.2*horizon, 0.5*horizon)
	partAt := at(0.5*horizon, 0.7*horizon)
	// A random proper subset of nodes forms one side of the partition.
	group := []int{}
	for n := 0; n < g.NumNodes(); n++ {
		if src.Float64() < 0.4 {
			group = append(group, n)
		}
	}
	if len(group) == 0 || len(group) == g.NumNodes() {
		group = []int{0}
	}
	fwd, _ := g.EdgeLinks(graph.EdgeID(src.Intn(g.NumEdges())))
	l := g.Link(fwd)
	edgeAt := at(0.3*horizon, 0.6*horizon)
	return &faultinject.Schedule{
		Seed:   seed,
		Signal: &faultinject.SignalFaults{Drop: 0.05 + 0.15*src.Float64(), Retries: 3},
		Crashes: []faultinject.CrashEvent{
			{Node: crashNode, At: crashAt, Restart: crashAt + 0.1*horizon},
		},
		Partitions: []faultinject.Partition{
			{Group: group, At: partAt, Heal: partAt + 0.1*horizon},
		},
		Edges: []faultinject.EdgeFault{
			{From: int(l.From), To: int(l.To), At: edgeAt, Repair: edgeAt + 0.2*horizon},
		},
	}
}

// TestPropertyChaosQuiescence drives random Waxman topologies through
// random fault schedules and checks the invariants the paper's protocol
// promises regardless of the faults drawn:
//
//  1. the run terminates and every connection span reaches a terminal
//     outcome — no span is left "pending" after quiescence;
//  2. each link's spare-bandwidth pool equals max_j APLV[j], the paper's
//     backup-multiplexing rule (§4.1), faults or not;
//  3. the whole run is a pure function of the seed: replaying it yields
//     the identical result and the identical event stream (metamorphic
//     determinism check).
func TestPropertyChaosQuiescence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const horizon = 60.0
			g, err := topology.Waxman(topology.WaxmanConfig{
				Nodes: 14, AvgDegree: 3, MinDegree: 2, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			sc, err := scenario.Generate(scenario.Config{
				Nodes: g.NumNodes(), Lambda: 0.4, Duration: horizon, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			sched := randomSchedule(g, seed, horizon)
			if err := sched.Validate(); err != nil {
				t.Fatalf("random schedule invalid: %v", err)
			}

			run := func() (*sim.Result, []telemetry.Event, *lsdb.DB) {
				net, err := drtp.NewNetwork(g, 12, 1)
				if err != nil {
					t.Fatal(err)
				}
				buf := telemetry.NewBuffer()
				res, err := sim.Run(net, routing.NewDLSR(), sc, sim.Config{
					Telemetry: telemetry.NewTracer(buf),
					Chaos:     sched,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res, buf.Events(), net.DB()
			}

			res1, ev1, db := run()

			// Invariant 1: quiescence — no pending spans.
			tr := telemetry.BuildTrace(ev1)
			for _, s := range tr.Spans {
				if s.Outcome == "pending" {
					t.Fatalf("span conn=%d left pending after the run", s.Conn)
				}
			}

			// Invariant 2: spare pool == max APLV on every link.
			for l := 0; l < db.NumLinks(); l++ {
				id := graph.LinkID(l)
				if got, want := db.SpareBW(id), db.APLVMax(id); got != want {
					t.Fatalf("link %d: spare=%d, max APLV=%d", l, got, want)
				}
			}

			// Invariant 3: replay determinism.
			res2, ev2, _ := run()
			if !reflect.DeepEqual(res1, res2) {
				t.Fatalf("same seed, different results:\n%+v\n%+v", res1, res2)
			}
			if !reflect.DeepEqual(ev1, ev2) {
				t.Fatalf("same seed, different event streams (%d vs %d events)",
					len(ev1), len(ev2))
			}
		})
	}
}

// TestPropertyNoGoroutineLeak runs distributed clusters under random
// chaos — lossy links, an edge failure mid-run — and checks that closing
// the cluster releases every goroutine: retransmission timers, router
// loops and transport backlog drainers all terminate.
func TestPropertyNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 8, AvgDegree: 3, MinDegree: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		func() {
			sched := &faultinject.Schedule{
				Seed:  seed,
				Links: []faultinject.LinkRule{{From: -1, To: -1, Drop: 0.05 * float64(seed)}},
			}
			mem := transport.NewMem()
			inj := faultinject.New(sched, mem)
			c, err := router.NewCluster(router.Config{
				Graph:         g,
				Capacity:      10,
				UnitBW:        1,
				HelloInterval: 10 * time.Millisecond,
				LSInterval:    20 * time.Millisecond,
				SetupTimeout:  500 * time.Millisecond,
				RetryLimit:    3,
			}, inj)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				c.Close()
				_ = mem.Close()
			}()
			waitCond(t, "LS convergence", func() bool {
				_, err := c.Router(0).Establish(999, graph.NodeID(g.NumNodes()-1))
				if err == nil {
					return c.Router(0).Release(999) == nil
				}
				return false
			})
			for i := 0; i < 4; i++ {
				// Terminal either way: admitted or cleanly rejected.
				if info, err := c.Router(0).Establish(lsdb.ConnID(i+1), graph.NodeID(g.NumNodes()-1)); err == nil && len(info.Primary) > 1 {
					c.FailEdge(info.Primary[0], info.Primary[1])
					waitCond(t, "terminal state", func() bool {
						cur, ok := c.Router(0).Conn(info.ID)
						return !ok || cur.Switched || cur.Dead
					})
					break
				}
			}
		}()
	}
	// Retransmission AfterFuncs may still be draining; give them a
	// moment, then require the goroutine count back near the baseline.
	for i := 0; i < 400; i++ { // 8s budget at 20ms per poll
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d -> %d\n%s", base, runtime.NumGoroutine(), buf[:n])
}
