package controlplane_test

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/topology"
	"github.com/rtcl/drtp/internal/transport"
)

// relayFrames mark, in a goroutine dump, goroutines that only move
// messages from one channel to another: the in-memory transport's
// per-endpoint pump, a goroutine started where a node runtime splits
// router from agent traffic, and the transport's backlog drainer (named
// by the function that starts every one of them).
var relayFrames = []string{
	"transport.(*memEndpoint).pump(",
	"controlplane.NewNodeRuntime.func",
	"transport.(*memEndpoint).startDrainLocked",
}

// TestNodeSplitLeavesNoRelayGoroutines: on a quiet in-memory
// deployment, a message reaches the router or agent that handles it with
// no goroutine between them — the transport delivers into their inboxes
// and splits the two where it delivers.
func TestNodeSplitLeavesNoRelayGoroutines(t *testing.T) {
	g, err := topology.Waxman(topology.WaxmanConfig{Nodes: 12, AvgDegree: 3, MinDegree: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mem := transport.NewMem()
	defer mem.Close()
	d := deploy(t, throughputConfig(g), mem)
	agent := d.Node(0).Agent
	for i := 0; i < 2*g.NumNodes(); i++ {
		id, dst := lsdb.ConnID(i+1), graph.NodeID(1+i%(g.NumNodes()-1))
		if reply, err := agent.Request(id, dst); err != nil || !reply.OK {
			t.Fatalf("request %d -> %d: err=%v reason=%q", id, dst, err, reply.Reason)
		}
		if rel, err := agent.ReleaseConn(id); err != nil || !rel.OK {
			t.Fatalf("release %d: err=%v reason=%q", id, err, rel.Reason)
		}
	}

	// Hellos, heartbeats and periodic adverts never stop, so a backlog
	// may exist for a moment: wait for a dump that shows no relay.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var dump bytes.Buffer
		_ = pprof.Lookup("goroutine").WriteTo(&dump, 2)
		found := ""
		for _, frame := range relayFrames {
			if bytes.Contains(dump.Bytes(), []byte(frame)) {
				found = frame
			}
		}
		if found == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a goroutine in %s still runs on a quiet deployment", found)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
