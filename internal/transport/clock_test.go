package transport_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/transport"
)

var epoch = time.Unix(0, 0)

// TestManualClockFiresInDeadlineOrder: one Advance fires everything that
// falls due, each at its own deadline and in deadline order, a ticker once
// per period; what is not yet due stays armed.
func TestManualClockFiresInDeadlineOrder(t *testing.T) {
	c := transport.NewManualClock(epoch)
	var order []time.Duration
	at := func(d time.Duration) {
		c.AfterFunc(d, func() { order = append(order, c.Now().Sub(epoch)) })
	}
	at(30 * time.Millisecond)
	at(10 * time.Millisecond)
	timer := c.NewTimer(20 * time.Millisecond)
	at(20 * time.Millisecond)
	late := c.NewTimer(time.Second)
	tick := c.NewTicker(7 * time.Millisecond)

	c.Advance(35 * time.Millisecond)
	if want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}; !equalDurations(order, want) {
		t.Fatalf("after-funcs ran at %v, want %v", order, want)
	}
	if got := (<-timer.C()).Sub(epoch); got != 20*time.Millisecond {
		t.Fatalf("timer fired at %v, want 20ms", got)
	}
	// The ticker's channel holds one tick: the first, at 7 ms; the four
	// after it found the channel full.
	if got := (<-tick.C()).Sub(epoch); got != 7*time.Millisecond {
		t.Fatalf("ticker's tick at %v, want 7ms", got)
	}
	select {
	case <-late.C():
		t.Fatal("a timer fired before its deadline")
	default:
	}
	if got := c.Now().Sub(epoch); got != 35*time.Millisecond {
		t.Fatalf("clock at %v after the advance, want 35ms", got)
	}
	c.Advance(5 * time.Millisecond) // the ticker's tick due at 42 ms is not
	select {
	case <-tick.C():
		t.Fatal("the ticker fired off its period")
	default:
	}
	c.Advance(2 * time.Millisecond)
	if got := (<-tick.C()).Sub(epoch); got != 42*time.Millisecond {
		t.Fatalf("ticker's next tick at %v, want 42ms", got)
	}
	tick.Stop()
	if !late.Stop() || late.Stop() {
		t.Fatal("Stop on an armed timer, then on a stopped one, want true then false")
	}
}

// TestManualClockStopReset holds a manual timer to time.Timer's contract:
// Stop and Reset report whether it was armed, a fired tick waits in the
// channel, and a timer reset to a deadline not after Now fires at once.
func TestManualClockStopReset(t *testing.T) {
	c := transport.NewManualClock(epoch)
	timer := c.NewTimer(time.Millisecond)
	c.Advance(time.Millisecond)
	if timer.Stop() {
		t.Fatal("Stop on a fired timer reported it armed")
	}
	<-timer.C()
	if timer.Reset(time.Millisecond) {
		t.Fatal("Reset of a fired timer reported it armed")
	}
	if !timer.Reset(5 * time.Millisecond) {
		t.Fatal("Reset of an armed timer reported it stopped")
	}
	c.Advance(time.Millisecond)
	select {
	case <-timer.C():
		t.Fatal("Reset kept the earlier deadline")
	default:
	}
	timer.Reset(0)
	if got := (<-timer.C()).Sub(epoch); got != 2*time.Millisecond {
		t.Fatalf("a timer reset to 0 fired at %v, want at once (2ms)", got)
	}
	ran := make(chan struct{})
	c.AfterFunc(0, func() { close(ran) })
	<-ran
	if !c.Idle() {
		t.Fatal("the clock is not idle with every tick received")
	}
	c.Advance(10 * time.Millisecond)
	select {
	case <-timer.C():
		t.Fatal("a fired timer fired again")
	default:
	}
}

// TestManualClockConcurrentAdvance moves the clock from several
// goroutines while others stop, reset and re-arm timers and tickers on it
// and the pooled round-trip waits take their timers from it; run it under
// the race detector.
func TestManualClockConcurrentAdvance(t *testing.T) {
	c := transport.NewManualClock(epoch)
	mem := transport.NewMemOn(c)
	defer mem.Close()
	ep, err := mem.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	ep.Recv() // start delivery
	var advancers, workers, fired sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		advancers.Add(1)
		go func() {
			defer advancers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Advance(time.Millisecond)
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			ticker := c.NewTicker(3 * time.Millisecond)
			defer ticker.Stop()
			for i := 0; i < 200; i++ {
				timer := c.NewTimer(time.Duration(i%5) * time.Millisecond)
				timer.Reset(2 * time.Millisecond)
				if i%2 == 0 && !timer.Stop() {
					<-timer.C()
				}
				fired.Add(1)
				c.AfterFunc(time.Duration(i%3)*time.Millisecond, fired.Done)
				k, _ := proto.ReplyKeyOf(proto.ConnCommandResult{Seq: uint64(g*1000 + i)})
				w, err := transport.Await(ep, k)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := w.Next(time.Millisecond, nil); !errors.Is(err, transport.ErrTimeout) {
					t.Errorf("wait on a moving manual clock: %v, want a timeout", err)
				}
				w.Done()
				select {
				case <-ticker.C():
				default:
				}
			}
		}()
	}
	workers.Wait()
	fired.Wait()
	close(stop)
	advancers.Wait()
}

// TestWaitOnEndpointClock: a round-trip wait times out on its endpoint's
// clock, so on a manual one only once the clock passes its deadline; the
// pooled wait taken next for a wall-clock endpoint runs on the wall.
func TestWaitOnEndpointClock(t *testing.T) {
	c := transport.NewManualClock(epoch)
	for _, mem := range []*transport.Mem{transport.NewMemOn(c), transport.NewMem()} {
		ep, err := mem.Attach(0)
		if err != nil {
			t.Fatal(err)
		}
		ep.Recv() // start delivery
		k, _ := proto.ReplyKeyOf(proto.ConnCommandResult{Seq: 1})
		w, err := transport.Await(ep, k)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := w.Next(10*time.Millisecond, nil)
			done <- err
		}()
		if ep.Clock() == c {
			select {
			case err := <-done:
				t.Fatalf("wait on a stopped manual clock ended: %v", err)
			case <-time.After(20 * time.Millisecond):
			}
			c.Advance(10 * time.Millisecond)
		}
		select {
		case err := <-done:
			if !errors.Is(err, transport.ErrTimeout) {
				t.Fatalf("wait: %v, want a timeout", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("wait past its deadline never ended")
		}
		w.Done()
		_ = mem.Close()
	}
}

func equalDurations(a, b []time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
