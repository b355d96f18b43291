package controlplane_test

import (
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/faultinject"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/telemetry"
	"github.com/rtcl/drtp/internal/topology"
	"github.com/rtcl/drtp/internal/transport"
)

// TestChaosConformance runs the two-role control plane under the
// deterministic fault-injection layer: every signalling message is
// dropped with 10% probability throughout, and at logical time 2 the
// primary's transit node is partitioned away from the rest of the
// network (services included). The deployment must establish under
// loss, survive the partition by activating the backup channel, and
// admit new connections that avoid the partitioned node.
func TestChaosConformance(t *testing.T) {
	// Asymmetric fixture: the unique min-hop route 0-2-1 is the primary,
	// the unique alternative 0-3-4-1 the backup, so the partition group
	// below deterministically hits the primary's transit node.
	g, err := topology.FromEdgeList(5, [][2]int{{0, 2}, {2, 1}, {0, 3}, {3, 4}, {4, 1}})
	if err != nil {
		t.Fatal(err)
	}
	sched := &faultinject.Schedule{
		Seed:       7,
		TimeUnit:   "logical",
		Links:      []faultinject.LinkRule{{From: -1, To: -1, Drop: 0.05}},
		Partitions: []faultinject.Partition{{Group: []int{2}, At: 2}},
	}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	start := time.Unix(0, 0)
	clk := transport.NewManualClock(start)
	inj := faultinject.New(sched, transport.NewMem(), faultinject.WithClock(clk))

	ring := telemetry.NewRing(1 << 14)
	cfg := deployConfig(g, ring)
	// Under 10% loss a heartbeat-miss false positive needs HeartbeatMiss
	// consecutive drops; 8 puts that at 1e-8 per detector window. Short
	// RPC windows with a deeper retry budget keep each dropped request
	// cheap instead of stalling a full default timeout.
	cfg.HeartbeatMiss = 8
	cfg.RPCTimeout = 500 * time.Millisecond
	cfg.RetryLimit = 4
	// An activation round trip spans several hop messages, each lossy;
	// give the routers a deep retransmission budget so one backup is
	// enough to survive the partition.
	cfg.Router.RetryLimit = 8
	cfg.Router.SetupTimeout = 3 * time.Second
	d := deploy(t, cfg, inj)

	// Phase 1: lossy but connected. Establishment must succeed through
	// the retry/backoff machinery at every layer; a clean coordinator-side
	// timeout rejection under heavy loss is retried (the quota is undone,
	// so the request simply re-admits).
	var reply = struct {
		OK      bool
		Primary []graph.NodeID
		Backups [][]graph.NodeID
		Reason  string
	}{}
	for try := 0; try < 3 && !reply.OK; try++ {
		r, err := d.Node(0).Agent.Request(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		reply.OK, reply.Primary, reply.Backups, reply.Reason = r.OK, r.Primary, r.Backups, r.Reason
	}
	if !reply.OK {
		t.Fatalf("establish under loss rejected: %s", reply.Reason)
	}
	if len(reply.Primary) != 3 || reply.Primary[1] != 2 {
		t.Fatalf("primary = %v, want the unique min-hop route via node 2", reply.Primary)
	}
	if len(reply.Backups) == 0 {
		t.Fatal("no backup route")
	}

	// Phase 2: partition node 2 away from everything.
	clk.Set(start.Add(2500 * time.Microsecond))

	waitFor(t, "backup activation after partition", func() bool {
		info, ok := d.Node(0).Router.Conn(1)
		return ok && info.Switched && !info.Dead
	})
	info, _ := d.Node(0).Router.Conn(1)
	if contains(info.Primary, graph.NodeID(2)) {
		t.Fatalf("active route %v still transits partitioned node 2", info.Primary)
	}
	waitFor(t, "coordinator excludes partitioned node", func() bool {
		return excluded(d, 2)
	})

	// New admissions keep working during the partition and route around
	// the dead node.
	var fresh = struct {
		ok      bool
		primary []graph.NodeID
		reason  string
	}{}
	waitFor(t, "post-partition establish", func() bool {
		r, err := d.Node(0).Agent.Request(2, 1)
		if err != nil {
			return false
		}
		fresh.ok, fresh.primary, fresh.reason = r.OK, r.Primary, r.Reason
		return r.OK
	})
	if contains(fresh.primary, graph.NodeID(2)) {
		t.Fatalf("new primary %v routed through partitioned node 2", fresh.primary)
	}

	if n := ring.Count(telemetry.EvHeartbeatMiss); n < 1 {
		t.Fatalf("heartbeat-miss events = %d, want >= 1", n)
	}
	if n := ring.Count(telemetry.EvBackupActivate); n < 1 {
		t.Fatalf("backup-activate events = %d, want >= 1", n)
	}
	stats := inj.Stats()
	if stats.Drops == 0 || stats.PartitionDrops == 0 {
		t.Fatalf("injector applied no faults: %+v", stats)
	}

	// The control plane itself must not have dropped the connection: the
	// tenant holds both admissions.
	if got := d.Coord.TenantConns("default"); got != 2 {
		t.Fatalf("tenant usage = %d, want 2: the coordinator lost the surviving connection's record", got)
	}
}
