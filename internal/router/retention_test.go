package router_test

import (
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/router"
	"github.com/rtcl/drtp/internal/telemetry"
	"github.com/rtcl/drtp/internal/transport"
)

const (
	probeSender = graph.NodeID(50)
	probeTarget = graph.NodeID(0)
	probeNext   = graph.NodeID(1)
)

// newProbedCluster starts a theta cluster in which nothing signals by
// itself, with an extra endpoint that plays the source of hand-made
// signalling packets.
func newProbedCluster(t *testing.T) (*router.Cluster, transport.Endpoint, *telemetry.Buffer) {
	t.Helper()
	mem := transport.NewMem()
	events := telemetry.NewBuffer()
	c, err := router.NewCluster(router.Config{
		Graph:         theta(t),
		Capacity:      10,
		UnitBW:        1,
		HelloInterval: 10 * time.Millisecond,
		HelloMiss:     noDetector,
		LSInterval:    20 * time.Millisecond,
		SetupTimeout:  3 * time.Second,
		Telemetry:     telemetry.NewTracer(events),
	}, mem)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		_ = mem.Close()
	})
	sender, err := mem.Attach(probeSender)
	if err != nil {
		t.Fatal(err)
	}
	return c, sender, events
}

// answer sends m to the target and returns the setup result that comes
// back to the sender.
func answer(t *testing.T, sender transport.Endpoint, m proto.Message) proto.SetupResult {
	t.Helper()
	if err := sender.Send(probeTarget, m); err != nil {
		t.Fatal(err)
	}
	for {
		select {
		case env := <-sender.Recv():
			if res, ok := env.Msg.(proto.SetupResult); ok {
				return res
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no answer to %#v", m)
		}
	}
}

// lastHop is a setup whose last hop is the target: processing it records
// one signalling dedup entry there and reserves nothing.
func lastHop(conn lsdb.ConnID) proto.Setup {
	return proto.Setup{Conn: conn, Channel: proto.Primary, Seq: 1,
		Route: []graph.NodeID{probeSender, probeTarget}, Hop: 1}
}

// dedupHits counts the target's dedup hits for conn with the given
// reason.
func dedupHits(events *telemetry.Buffer, conn lsdb.ConnID, reason string) int {
	n := 0
	for _, e := range events.Events() {
		if e.Kind == telemetry.EvDedupHit && e.Node == int(probeTarget) && e.Conn == int64(conn) && e.Reason == reason {
			n++
		}
	}
	return n
}

// TestSignallingWindowRetainsLastHops: a retransmitted setup hop that
// arrives after MaxSeenSig-1 other distinct hops at the same router is
// still replayed, a dedup hit that reserves nothing again; one more
// distinct hop and the router has forgotten it, so the retransmission
// reaches the link database and is refused there.
func TestSignallingWindowRetainsLastHops(t *testing.T) {
	c, sender, events := newProbedCluster(t)
	db := c.Router(probeTarget).DB()
	const conn = lsdb.ConnID(500)
	setup := proto.Setup{Conn: conn, Channel: proto.Primary, Seq: 1,
		Route: []graph.NodeID{probeSender, probeTarget, probeNext}, Hop: 1}
	if res := answer(t, sender, setup); !res.OK {
		t.Fatalf("first setup: %+v", res)
	}
	prime := db.TotalPrimeBW()
	for i := 0; i < router.MaxSeenSig-1; i++ {
		if res := answer(t, sender, lastHop(lsdb.ConnID(10_000+i))); !res.OK {
			t.Fatalf("filler hop %d: %+v", i, res)
		}
	}
	if res := answer(t, sender, setup); !res.OK {
		t.Fatalf("retransmission after %d other hops: %+v; want the recorded success replayed", router.MaxSeenSig-1, res)
	}
	if n := dedupHits(events, conn, "setup"); n != 1 || db.TotalPrimeBW() != prime {
		t.Fatalf("retransmission: %d dedup hits, prime %d -> %d; want 1 hit and no second reservation", n, prime, db.TotalPrimeBW())
	}

	answer(t, sender, lastHop(lsdb.ConnID(10_000+router.MaxSeenSig)))
	if res := answer(t, sender, setup); res.OK || res.FailedHop != 1 {
		t.Fatalf("retransmission after %d other hops: %+v; want the link database's refusal", router.MaxSeenSig, res)
	}
}

// TestTombstonesRetainLastConnections: a setup that a teardown outran is
// still dropped as stale after MaxTombstones-1 other connections were torn
// down through the same router; one more and the tombstone is gone, so
// the stale setup reserves.
func TestTombstonesRetainLastConnections(t *testing.T) {
	c, sender, events := newProbedCluster(t)
	db := c.Router(probeTarget).DB()
	const conn = lsdb.ConnID(600)
	route := []graph.NodeID{probeSender, probeTarget, probeNext}
	teardown := func(id lsdb.ConnID) {
		if err := sender.Send(probeTarget, proto.Teardown{Conn: id, Channel: proto.Primary,
			Route: route, Hop: 1, UpTo: 2, Seq: 2}); err != nil {
			t.Fatal(err)
		}
	}
	stale := proto.Setup{Conn: conn, Channel: proto.Primary, Seq: 1, Route: route, Hop: 1}

	teardown(conn)
	for i := 0; i < router.MaxTombstones-1; i++ {
		teardown(lsdb.ConnID(20_000 + i))
	}
	if err := sender.Send(probeTarget, stale); err != nil {
		t.Fatal(err)
	}
	// The target handles one sender's packets in order: once this one is
	// answered, the ones before it are done.
	answer(t, sender, lastHop(1))
	if n := dedupHits(events, conn, "stale-setup"); n != 1 || db.TotalPrimeBW() != 0 {
		t.Fatalf("stale setup after %d other teardowns: %d stale hits, prime %d; want it dropped",
			router.MaxTombstones-1, n, db.TotalPrimeBW())
	}

	teardown(lsdb.ConnID(20_000 + router.MaxTombstones))
	if res := answer(t, sender, stale); !res.OK || db.TotalPrimeBW() == 0 {
		t.Fatalf("stale setup after %d other teardowns: %+v; want it carried out", router.MaxTombstones, res)
	}
}
