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

// TestWaitAllocs: a round trip's wait takes its reply channel and its
// attempt timer from the pool, on its endpoint's clock, whether the wall
// clock or a manual one: a warm Await, Next and Done allocate nothing.
func TestWaitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled waits at random")
	}
	for _, mem := range []*transport.Mem{transport.NewMem(), transport.NewMemOn(transport.NewManualClock(time.Unix(0, 0)))} {
		ep, err := mem.Attach(0)
		if err != nil {
			t.Fatal(err)
		}
		ep.Recv() // start delivery
		k, _ := proto.ReplyKeyOf(proto.ConnCommandResult{Seq: 1})
		round := func() {
			w, err := transport.Await(ep, k)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Next(0, nil); !errors.Is(err, transport.ErrTimeout) {
				t.Fatalf("wait with no time left: %v, want a timeout", err)
			}
			w.Done()
		}
		round()
		if avg := testing.AllocsPerRun(100, round); avg > 0 {
			t.Errorf("a round trip's wait on %T allocates %.1f objects, want 0", ep.Clock(), avg)
		}
		_ = mem.Close()
	}
}
