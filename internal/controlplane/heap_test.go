package controlplane_test

import (
	"runtime"
	"sync"
	"testing"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/topology"
	"github.com/rtcl/drtp/internal/transport"
)

// TestDeploymentHeapBounded runs request/release cycles through an
// in-memory 12-node deployment (the ledger's cp_mem shape and timers) and
// requires the live heap to have stopped growing once the dedup windows
// of routers and agents are full: every completed cycle leaves records in
// them, and nothing else a deployment keeps is per cycle. A window's size
// saws between half and all of its capacity, so each side of the
// comparison is the mean of five readings 2 000 cycles apart.
func TestDeploymentHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 60k control-plane cycles")
	}
	g, err := topology.Waxman(topology.WaxmanConfig{Nodes: 12, AvgDegree: 3, MinDegree: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mem := transport.NewMem()
	defer mem.Close()
	d := deploy(t, throughputConfig(g), mem)

	const clients = 2
	var next lsdb.ConnID
	cycles := func(n int) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			src := graph.NodeID(c * g.NumNodes() / clients)
			first := next + lsdb.ConnID(c)
			wg.Add(1)
			go func() {
				defer wg.Done()
				agent := d.Node(src).Agent
				for i := 0; i < n/clients; i++ {
					id := first + lsdb.ConnID(i*clients) + 1
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
		next += lsdb.ConnID(n)
	}

	liveHeapMB := func() float64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc) / (1 << 20)
	}
	const step = 2_000
	var by20k, by60k float64
	for done := step; done <= 60_000 && !t.Failed(); done += step {
		cycles(step)
		switch {
		case done > 10_000 && done <= 20_000:
			by20k += liveHeapMB() / 5
		case done > 50_000:
			by60k += liveHeapMB() / 5
		}
	}
	t.Logf("live heap %.1f MB around 20k cycles, %.1f MB around 60k", by20k, by60k)
	if by60k > 1.10*by20k {
		t.Errorf("live heap grew from %.1f MB to %.1f MB between 20k and 60k cycles", by20k, by60k)
	}
}
