package controlplane

import (
	"slices"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/topology"
	"github.com/rtcl/drtp/internal/transport"
)

// TestHeartbeatCheckLateness runs the coordinator's heartbeat check at
// chosen times over six registered nodes: a check that ran late declares
// nobody, however long the nodes look silent, and an on-time check
// declares exactly the one node that is.
func TestHeartbeatCheckLateness(t *testing.T) {
	const interval = time.Hour // the coordinator's own ticker never fires
	t0 := time.Now()
	for _, c := range []struct {
		name      string
		lastCheck time.Duration // when the check before ran, after t0
		beats     [6]time.Duration
		now       time.Duration
		want      []graph.NodeID // declared dead
	}{
		// Due at 1h, run at 4h: every node looks 4h silent against a 3h
		// deadline, but the check itself is 3h late.
		{"late check", 0, [6]time.Duration{}, 4 * time.Hour, nil},
		// Due and run at 4h; node 5 was last heard at t0.
		{"on time, one silent", 3 * time.Hour, [6]time.Duration{
			3 * time.Hour, 3 * time.Hour, 3 * time.Hour, 3 * time.Hour, 3 * time.Hour, 0,
		}, 4 * time.Hour, []graph.NodeID{5}},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, err := topology.Ring(6)
			if err != nil {
				t.Fatal(err)
			}
			co, err := NewCoordinator(DeployConfig{Graph: g, Capacity: 10, HeartbeatInterval: interval, HeartbeatMiss: 3}, transport.NewMem())
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close()
			co.mu.Lock()
			co.lastCheck = t0.Add(c.lastCheck)
			for i := range co.nodes {
				co.nodes[i].registered = true
				co.nodes[i].lastBeat = t0.Add(c.beats[i])
			}
			co.mu.Unlock()

			co.checkHeartbeats(t0.Add(c.now))
			if dead := downNodes(co); !slices.Equal(dead, c.want) {
				t.Fatalf("declared %v dead, want %v", dead, c.want)
			}
			// The next check, on time, declares nobody new: a late check
			// moved the nodes' clocks forward by its lateness.
			co.checkHeartbeats(t0.Add(c.now + interval))
			if dead := downNodes(co); !slices.Equal(dead, c.want) {
				t.Fatalf("after the next check %v are dead, want %v", dead, c.want)
			}
		})
	}
}

// downNodes lists the nodes the coordinator holds dead, ascending.
func downNodes(co *Coordinator) []graph.NodeID {
	var dead []graph.NodeID
	for _, n := range co.Nodes() {
		if n.Down {
			dead = append(dead, n.Node)
		}
	}
	return dead
}
