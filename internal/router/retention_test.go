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

// lastHop is a setup under sequence seq, sent with low-water mark low,
// whose last hop is the target: processing it records one hop there and
// reserves nothing.
func lastHop(conn lsdb.ConnID, seq, low uint64) proto.Setup {
	return proto.Setup{Conn: conn, Channel: proto.Primary, Seq: seq, Low: low,
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

// TestRetransmissionOutlastsOtherHops: a setup retransmitted after 8 192
// other hops passed through its router, all sent while its source still
// awaited it, is replayed as a duplicate that reserves nothing again. Once
// the source's low-water mark passes it, its record is gone, and a copy
// that straggles in after that is refused as stale, unanswered.
func TestRetransmissionOutlastsOtherHops(t *testing.T) {
	c, sender, events := newProbedCluster(t)
	r := c.Router(probeTarget)
	db := r.DB()
	const conn, others = lsdb.ConnID(500), 8192
	setup := proto.Setup{Conn: conn, Channel: proto.Primary, Seq: 1,
		Route: []graph.NodeID{probeSender, probeTarget, probeNext}, Hop: 1}
	if res := answer(t, sender, setup); !res.OK {
		t.Fatalf("first setup: %+v", res)
	}
	prime := db.TotalPrimeBW()
	for i := 0; i < others; i++ {
		// The source awaits setup 1 throughout, so its mark stays at 0.
		if res := answer(t, sender, lastHop(lsdb.ConnID(10_000+i), uint64(2+i), 0)); !res.OK {
			t.Fatalf("other hop %d: %+v", i, res)
		}
	}
	res := answer(t, sender, setup)
	if !res.OK || dedupHits(events, conn, "setup") != 1 || db.TotalPrimeBW() != prime {
		t.Fatalf("retransmission after %d other hops: %+v, %d dedup hits, prime %d -> %d; want the recorded success replayed",
			others, res, dedupHits(events, conn, "setup"), prime, db.TotalPrimeBW())
	}

	// The source is done with every sequence it sent so far.
	if res := answer(t, sender, lastHop(1, others+2, others+1)); !res.OK {
		t.Fatalf("hop past the mark: %+v", res)
	}
	if n := r.PendingRecords(); n != 1 {
		t.Fatalf("%d records kept once the mark passed all but the last hop, want 1", n)
	}
	if err := sender.Send(probeTarget, setup); err != nil {
		t.Fatal(err)
	}
	// The target handles one sender's packets in order: once this one is
	// answered, the ones before it are done.
	if res := answer(t, sender, lastHop(2, others+3, others+1)); res.Conn != 2 {
		t.Fatalf("the straggling setup was answered: %+v", res)
	}
	if n := dedupHits(events, conn, "stale-setup"); n != 1 || db.TotalPrimeBW() != prime {
		t.Fatalf("setup below the mark: %d stale hits, prime %d -> %d; want it refused", n, prime, db.TotalPrimeBW())
	}
}

// TestDelayedSetupStaysRefused: a setup that its connection's teardown
// outran is refused when it arrives behind 4 096 other teardowns, all sent
// while its source still had it in flight, and the link holds nothing
// for the torn-down connection. Once the source's low-water mark passes
// the teardown, its record goes, and the mark refuses the setup instead.
func TestDelayedSetupStaysRefused(t *testing.T) {
	c, sender, events := newProbedCluster(t)
	r := c.Router(probeTarget)
	db := r.DB()
	out, _ := theta(t).LinkBetween(probeTarget, probeNext)
	const conn, others = lsdb.ConnID(600), 4096
	route := []graph.NodeID{probeSender, probeTarget, probeNext}
	teardown := func(id lsdb.ConnID, seq uint64) {
		if err := sender.Send(probeTarget, proto.Teardown{Conn: id, Channel: proto.Primary,
			Route: route, Hop: 1, UpTo: 2, Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	stale := proto.Setup{Conn: conn, Channel: proto.Primary, Seq: 1, Route: route, Hop: 1}
	refused := func(want int, sync proto.Setup) {
		t.Helper()
		if err := sender.Send(probeTarget, stale); err != nil {
			t.Fatal(err)
		}
		if res := answer(t, sender, sync); res.Conn != sync.Conn {
			t.Fatalf("the delayed setup was answered: %+v", res)
		}
		if n := dedupHits(events, conn, "stale-setup"); n != want || db.HasPrimary(conn, out) || db.TotalPrimeBW() != 0 {
			t.Fatalf("delayed setup: %d stale hits, prime %d; want %d and nothing reserved", n, db.TotalPrimeBW(), want)
		}
	}

	teardown(conn, 2)
	for i := 0; i < others; i++ {
		teardown(lsdb.ConnID(20_000+i), uint64(3+i))
	}
	refused(1, lastHop(1, others+3, 0))

	// The source is done with every sequence it sent so far.
	answer(t, sender, lastHop(2, others+4, others+3))
	if n := r.PendingRecords(); n != 1 {
		t.Fatalf("%d records kept once the mark passed all but the last hop, want 1", n)
	}
	refused(2, lastHop(3, others+5, others+3))
}

// TestWipingRestartEstablishes rebuilds one router of a cluster on its
// node with empty state. Its neighbours hold the low-water mark its
// earlier incarnation sent them, and refuse anything at or below it as
// stale; the new incarnation numbers its signalling from its own, later
// start, above that mark, so its connections establish through them.
func TestWipingRestartEstablishes(t *testing.T) {
	mem := transport.NewMem()
	defer mem.Close()
	cfg := router.Config{Graph: theta(t), Capacity: 20, UnitBW: 1,
		HelloInterval: 10 * time.Millisecond, HelloMiss: noDetector,
		LSInterval: 20 * time.Millisecond, SetupTimeout: time.Second}
	c, err := router.NewCluster(cfg, mem)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cycles := func(first lsdb.ConnID) {
		t.Helper()
		for i := 0; i < 8; i++ {
			id, dst := first+lsdb.ConnID(i), graph.NodeID(1+i%4)
			if _, err := c.Router(0).Establish(id, dst); err != nil {
				t.Fatalf("establish %d -> %d: %v", id, dst, err)
			}
			if err := c.Router(0).Release(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycles(1)
	if err := c.Restart(0, cfg, mem); err != nil {
		t.Fatal(err)
	}
	cycles(100)
}
