package router

import (
	"errors"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/topology"
	"github.com/rtcl/drtp/internal/transport"
)

// TestRoundTripWaitReusesCleanly drives round trips whose replies land
// around the attempt deadline, so some arrive just after the timeout and
// some race the timer's tick, each followed by a round trip nobody
// answers. That one must run to its own deadline and time out: an early
// return would mean a stale tick or a stale reply came back with the
// pooled reply channel and timer.
func TestRoundTripWaitReusesCleanly(t *testing.T) {
	g, err := topology.FromEdgeList(2, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	mem := transport.NewMem()
	defer mem.Close()
	const timeout = 3 * time.Millisecond
	ep, err := mem.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{
		Graph: g, Node: 0, Capacity: 1000, UnitBW: 1,
		HelloInterval: time.Hour, HelloMiss: 1 << 20, LSInterval: time.Hour,
		SetupTimeout: timeout, RetryLimit: 1,
	}, ep)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Node 1 answers each setup after the delay the test last set, or
	// never when it is negative; the answer names the sequence it
	// answers.
	peer, err := mem.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	var delay atomic.Int64
	go func() {
		for env := range peer.Recv() {
			m, ok := env.Msg.(proto.Setup)
			if d := time.Duration(delay.Load()); ok && d >= 0 {
				res := proto.SetupResult{Conn: m.Conn, Channel: m.Channel, OK: true, Seq: m.Seq,
					Reason: strconv.FormatUint(m.Seq, 10)}
				time.AfterFunc(d, func() { _ = peer.Send(0, res) })
			}
		}
	}()

	for i := 0; i < 100; i++ {
		delay.Store(int64(timeout/2 + time.Duration(i%20)*timeout/20))
		s := signal{sigID: sigID{kind: sigSetup, conn: lsdb.ConnID(2 * i), channel: proto.Primary}, route: []graph.NodeID{0, 1}}
		res, err := r.roundTrip(s)
		r.mu.Lock()
		seq := r.sigSeq
		r.mu.Unlock()
		switch {
		case err == nil && res.reason != strconv.FormatUint(seq, 10):
			t.Fatalf("round trip %d (seq %d) took the reply %q", i, seq, res.reason)
		case err != nil && !errors.Is(err, ErrTimeout):
			t.Fatalf("round trip %d: %v", i, err)
		}

		delay.Store(-1)
		s.conn++
		start := time.Now()
		res, err = r.roundTrip(s)
		if took := time.Since(start); !errors.Is(err, ErrTimeout) || took < timeout {
			t.Fatalf("unanswered round trip after %d: %+v, %v after %v; want a timeout after %v", i, res, err, took, timeout)
		}
	}
}
