package controlplane_test

import (
	"errors"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/controlplane"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/transport"
)

// TestCallWaitReusesCleanly drives calls whose replies land around the
// attempt deadline, so some arrive just after the timeout and some race
// the timer's tick, each followed by a call nobody answers. That one must
// run to its own deadline and time out: an early return would mean a
// stale tick or a stale reply came back with the pooled reply channel and
// timer.
func TestCallWaitReusesCleanly(t *testing.T) {
	mem := transport.NewMem()
	defer mem.Close()
	ep, err := mem.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	ep.Recv() // start delivery; late replies land here
	server, err := mem.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	// The server answers each query after the delay the test last set,
	// or never when it is negative.
	var delay atomic.Int64
	go func() {
		for env := range server.Recv() {
			q, ok := env.Msg.(proto.ConnCommand)
			if d := time.Duration(delay.Load()); ok && d >= 0 {
				res := proto.ConnCommandResult{Seq: q.Seq, Reason: strconv.FormatUint(q.Seq, 10)}
				time.AfterFunc(d, func() { _ = server.Send(0, res) })
			}
		}
	}()

	const per = 3 * time.Millisecond
	stop := make(chan struct{})
	for i := uint64(0); i < 100; i++ {
		delay.Store(int64(per/2 + time.Duration(i%20)*per/20))
		id := 2 * i
		out, err := controlplane.Call(ep, 1, proto.ConnCommand{Seq: id}, proto.ConnCommandResult{Seq: id}, 1, per, stop)
		switch {
		case err == nil && out.(proto.ConnCommandResult).Reason != strconv.FormatUint(id, 10):
			t.Fatalf("call %d took the reply %+v", id, out)
		case err != nil && !errors.Is(err, controlplane.ErrTimeout):
			t.Fatalf("call %d: %v", id, err)
		}

		delay.Store(-1)
		start := time.Now()
		out, err = controlplane.Call(ep, 1, proto.ConnCommand{Seq: id + 1}, proto.ConnCommandResult{Seq: id + 1}, 1, per, stop)
		if took := time.Since(start); !errors.Is(err, controlplane.ErrTimeout) || took < per {
			t.Fatalf("unanswered call after %d: %v, %v after %v; want a timeout after %v", id, out, err, took, per)
		}
	}
}
