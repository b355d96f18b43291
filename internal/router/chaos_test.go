package router_test

import (
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/faultinject"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/router"
	"github.com/rtcl/drtp/internal/telemetry"
	"github.com/rtcl/drtp/internal/transport"
)

// newChaosCluster wraps a Mem transport in a chaos injector and starts a
// cluster configured for fast retries.
func newChaosCluster(t *testing.T, g *graph.Graph, sched *faultinject.Schedule, cfg router.Config) (*router.Cluster, *telemetry.Ring) {
	t.Helper()
	mem := transport.NewMem()
	inj := faultinject.New(sched, mem)
	ring := telemetry.NewRing(1 << 14)
	cfg.Graph = g
	if cfg.Capacity == 0 {
		cfg.Capacity = 10
	}
	cfg.UnitBW = 1
	cfg.HelloInterval = 10 * time.Millisecond
	// The chaos tests probe the signalling retry layer, not failure
	// detection (TestNbrRecoveryRevivesAdjacency fails its edge by hand).
	cfg.HelloMiss = noDetector
	cfg.LSInterval = 20 * time.Millisecond
	// The in-memory transport delivers instantly, so the round-trip budget
	// only gates how fast lost signalling is retransmitted. Keep it short:
	// a full setup cycle that loses every attempt must cost well under a
	// second, or the convergence window fits too few cycles to ride out an
	// unlucky drop schedule.
	if cfg.SetupTimeout == 0 {
		cfg.SetupTimeout = 400 * time.Millisecond
	}
	cfg.RetryLimit = 3
	cfg.Telemetry = telemetry.NewTracer(ring)
	c, err := router.NewCluster(cfg, inj)
	if err != nil {
		_ = mem.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		_ = mem.Close()
	})
	return c, ring
}

func convergeChaos(t *testing.T, c *router.Cluster, dst graph.NodeID) {
	t.Helper()
	waitFor(t, "LS convergence under chaos", func() bool {
		_, err := c.Router(0).Establish(999, dst)
		if err == nil {
			return c.Router(0).Release(999) == nil
		}
		t.Logf("converge: %v", err)
		return false
	})
}

// TestEstablishRetriesUnderLoss drives signalling through a 25%-loss
// injector: connections still come up because lost setups and activates
// are retransmitted, and the telemetry stream records the retries.
func TestEstablishRetriesUnderLoss(t *testing.T) {
	sched := &faultinject.Schedule{
		Seed:  31,
		Links: []faultinject.LinkRule{{From: -1, To: -1, Drop: 0.25}},
	}
	c, ring := newChaosCluster(t, theta(t), sched, router.Config{})
	convergeChaos(t, c, 1)

	established := 0
	for i := 0; i < 6; i++ {
		if _, err := c.Router(0).Establish(lsdb.ConnID(i+1), 1); err == nil {
			established++
		} else {
			t.Logf("conn %d: clean failure under loss: %v", i+1, err)
		}
	}
	if established == 0 {
		t.Fatal("no connection survived 25% signalling loss with 3 retries")
	}
	var retries int
	for _, e := range ring.Events() {
		if e.Kind == telemetry.EvRetry {
			retries += e.N
		}
	}
	if retries == 0 {
		t.Fatal("25% loss produced zero retry events")
	}
}

// TestDedupAbsorbsDuplicateSignalling duplicates every signalling packet
// (Dup: 1) and checks the at-least-once layer: duplicates are absorbed,
// each hop reserves once, and teardown releases everything exactly once
// — on a capacity-1 network any double-reserve or double-release would
// make the second establishment fail.
func TestDedupAbsorbsDuplicateSignalling(t *testing.T) {
	sched := &faultinject.Schedule{
		Seed:  32,
		Links: []faultinject.LinkRule{{From: -1, To: -1, Dup: 1}},
	}
	c, ring := newChaosCluster(t, theta(t), sched, router.Config{Capacity: 1})
	convergeChaos(t, c, 1)

	if _, err := c.Router(0).Establish(1, 1); err != nil {
		t.Fatalf("establish under full duplication: %v", err)
	}
	if err := c.Router(0).Release(1); err != nil {
		t.Fatalf("release: %v", err)
	}
	// LS flooding lags the release; wait until the capacity-1 links are
	// advertised free again, then the next establishment must succeed.
	waitFor(t, "re-establish on released capacity", func() bool {
		_, err := c.Router(0).Establish(2, 1)
		return err == nil
	})

	var hits int
	for _, e := range ring.Events() {
		if e.Kind == telemetry.EvDedupHit {
			hits += e.N
		}
	}
	if hits == 0 {
		t.Fatal("full duplication produced zero dedup hits")
	}
}

// TestNbrRecoveryRevivesAdjacency covers the opt-in crash-restart path:
// with NbrRecovery on, a neighbor declared failed is revived by its next
// hello, and the direct route becomes routable again. (Default behavior
// — failed links stay down — is covered by
// TestFailedLinkAdvertisedUnavailable.)
func TestNbrRecoveryRevivesAdjacency(t *testing.T) {
	c, _ := newChaosCluster(t, theta(t), &faultinject.Schedule{Seed: 33},
		router.Config{NbrRecovery: true})
	convergeChaos(t, c, 1)

	// Declare the direct 0-1 adjacency dead on both ends. The transport
	// is healthy, so hellos keep flowing and revive it.
	c.FailEdge(0, 1)
	waitFor(t, "direct route revived", func() bool {
		id := lsdb.ConnID(500)
		info, err := c.Router(0).Establish(id, 1)
		if err != nil {
			return false
		}
		direct := len(info.Primary) == 2
		if err := c.Router(0).Release(id); err != nil {
			return false
		}
		return direct
	})
}
