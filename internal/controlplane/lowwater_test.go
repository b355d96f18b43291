package controlplane_test

import (
	"sync"
	"testing"

	"github.com/rtcl/drtp/internal/controlplane"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/topology"
	"github.com/rtcl/drtp/internal/transport"
)

// ledgerDeployment deploys a 12-node control plane with the ledger's
// cp_mem timers over the in-memory transport.
func ledgerDeployment(t *testing.T) (*controlplane.Deployment, *graph.Graph, *transport.Mem, controlplane.DeployConfig) {
	t.Helper()
	g, err := topology.Waxman(topology.WaxmanConfig{Nodes: 12, AvgDegree: 3, MinDegree: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mem := transport.NewMem()
	t.Cleanup(func() { _ = mem.Close() })
	cfg := throughputConfig(g)
	return deploy(t, cfg, mem), g, mem, cfg
}

// cycle runs n request/release cycles through d from two closed-loop
// clients, one per half of the node range, on connection IDs from first.
func cycle(t *testing.T, d *controlplane.Deployment, g *graph.Graph, first lsdb.ConnID, n int) {
	t.Helper()
	const clients = 2
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		src := graph.NodeID(c * g.NumNodes() / clients)
		wg.Add(1)
		go func() {
			defer wg.Done()
			agent := d.Node(src).Agent
			for i := 0; i < n/clients; i++ {
				id := first + lsdb.ConnID(i*clients+c)
				dst := graph.NodeID((int(src) + 1 + i%(g.NumNodes()-1)) % g.NumNodes())
				if reply, err := agent.Request(id, dst); err != nil || !reply.OK {
					t.Errorf("request %d -> %d: err=%v reason=%q", id, dst, err, reply.Reason)
					return
				}
				if rel, err := agent.ReleaseConn(id); err != nil || !rel.OK {
					t.Errorf("release %d: err=%v reason=%q", id, err, rel.Reason)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPendingTablesBounded holds what the routers of a quiescent 12-node
// deployment remember of their signalling (Router.Footprint's Pending and
// Marks) to one bound after 10 000 and after 100 000 request/release
// cycles: a record lasts only until its source's low-water mark passes
// it, so the tables follow the signalling in flight, not the signalling
// done. The bound, 2 KB per router, holds a few records per source; the
// windows of 8 192 hops and 4 096 teardowns that the tables replace held
// ≈ 0.7 MB per router once full.
func TestPendingTablesBounded(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs 100k control-plane cycles")
	}
	d, g, _, _ := ledgerDeployment(t)
	const bound = 2 << 10
	var done int
	for _, upTo := range []int{10_000, 100_000} {
		cycle(t, d, g, lsdb.ConnID(done+1), upTo-done)
		done = upTo
		var pending, marks int64
		for n := 0; n < d.Size(); n++ {
			f := d.Node(graph.NodeID(n)).Router.Footprint()
			pending, marks = pending+f.Pending, marks+f.Marks
		}
		t.Logf("after %d cycles: pending tables %d B, marks %d B over %d routers", done, pending, marks, d.Size())
		if per := (pending + marks) / int64(d.Size()); per > bound {
			t.Errorf("after %d cycles the routers keep %d B of signalling records each, want at most %d", done, per, bound)
		}
	}
}

// TestRestartedCoordinatorCommands rebuilds the coordinator with empty
// state. The agents hold the low-water mark its earlier incarnation sent
// them and ignore commands at or below it; the new incarnation numbers its
// commands from its own, later start, above that mark, so an agent
// executes them and answers each with its own result, not with the one
// an earlier command of the same number left. The new incarnation learns
// every node from its heartbeats, as the agents registered with the
// earlier one, and admits a request.
func TestRestartedCoordinatorCommands(t *testing.T) {
	d, g, mem, cfg := ledgerDeployment(t)
	cycle(t, d, g, 1, 20)
	if err := d.Coord.Close(); err != nil {
		t.Fatal(err)
	}
	coord, err := controlplane.NewCoordinator(cfg, mem)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	for i, op := range []proto.ConnOp{proto.OpEstablish, proto.OpRelease, proto.OpEstablish} {
		id := lsdb.ConnID(100 + i/2)
		res, err := coord.Command(0, proto.ConnCommand{Op: op, Conn: id, Dst: 5})
		if err != nil || !res.OK || res.Conn != id {
			t.Fatalf("command %d (op %d, conn %d) from the new coordinator: %+v, %v", i, op, id, res, err)
		}
		if _, held := d.Node(0).Router.Conn(id); held != (op == proto.OpEstablish) {
			t.Fatalf("after command %d (op %d) the source holds conn %d: %v", i, op, id, held)
		}
	}
	waitFor(t, "the new coordinator knowing every node", func() bool { return len(coord.Nodes()) == d.Size() })
	reply, err := d.Node(0).Agent.Request(200, 5)
	if err != nil || !reply.OK {
		t.Fatalf("request to the new coordinator: err=%v reason=%q", err, reply.Reason)
	}
}
