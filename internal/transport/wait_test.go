package transport_test

import (
	"errors"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/transport"
)

// TestWaitReusesCleanly ends waits in the states that leave something
// behind: a reply and an expired timer both pending when Next returns,
// and a second reply landing after the last receive. The wait that next
// takes the pooled channel and timer must see neither: with no reply, it
// runs to its own deadline and times out.
func TestWaitReusesCleanly(t *testing.T) {
	mem := transport.NewMem()
	defer mem.Close()
	a, err := mem.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mem.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	a.Recv() // start delivery
	const deadline = 10 * time.Millisecond
	for i := uint64(0); i < 50; i++ {
		k, _ := proto.ReplyKeyOf(proto.ConnCommandResult{Seq: i})
		w, err := transport.Await(a, k)
		if err != nil {
			t.Fatal(err)
		}
		_ = b.Send(0, proto.ConnCommandResult{Seq: i})
		// Reply and tick race; whichever Next takes, the other is left.
		if _, err := w.Next(0, nil); err != nil && !errors.Is(err, transport.ErrTimeout) {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
		_ = b.Send(0, proto.ConnCommandResult{Seq: i})
		w.Done()

		k, _ = proto.ReplyKeyOf(proto.ConnCommandResult{Seq: 1000 + i})
		w, err = transport.Await(a, k)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		msg, err := w.Next(deadline, nil)
		if took := time.Since(start); !errors.Is(err, transport.ErrTimeout) || took < deadline {
			t.Fatalf("wait %d: got %v, %v after %v; want a timeout after %v", i, msg, err, took, deadline)
		}
		w.Done()
	}
}
