package transport

import (
	"errors"
	"sync"
	"time"

	"github.com/rtcl/drtp/internal/proto"
)

// ErrTimeout is returned by Wait.Next when no reply came in time.
var ErrTimeout = errors.New("transport: no reply in time")

// Wait is one round trip's wait for its reply: the channel the reply is
// awaited on and the timer that bounds each attempt, on the endpoint's
// clock. Both come from a pool and go back to it with Done, so a round
// trip allocates neither; a wait taken for an endpoint on another clock
// than its last one arms a new timer.
type Wait struct {
	ep    Endpoint
	key   proto.ReplyKey
	reply chan proto.Envelope
	clock Clock
	timer Timer
	// ticking is set while the timer runs, or has fired with its tick
	// not yet received.
	ticking bool
}

var waits = sync.Pool{New: func() any {
	return &Wait{reply: make(chan proto.Envelope, 1)}
}}

// Await starts waiting for the reply keyed k on ep (see Endpoint.Await,
// whose error it returns). The caller must call Done when it is through.
func Await(ep Endpoint, k proto.ReplyKey) (*Wait, error) {
	w := waits.Get().(*Wait)
	if err := ep.Await(k, w.reply); err != nil {
		waits.Put(w)
		return nil, err
	}
	if c := ep.Clock(); w.clock != c {
		w.clock, w.timer = c, c.NewTimer(time.Hour)
		w.timer.Stop()
	}
	w.ep, w.key = ep, k
	return w, nil
}

// Next waits up to d for the reply. It returns ErrTimeout when d passes
// first and ErrClosed when stop closes first. A reply to an earlier
// attempt that lands late still completes a later Next.
func (w *Wait) Next(d time.Duration, stop <-chan struct{}) (proto.Message, error) {
	w.timer.Reset(d)
	w.ticking = true
	select {
	case env := <-w.reply:
		return env.Msg, nil
	case <-w.timer.C():
		w.ticking = false
		return nil, ErrTimeout
	case <-stop:
		return nil, ErrClosed
	}
}

// Done ends the wait and returns its channel and timer to the pool, both
// empty and the timer stopped, so the next round trip sees nothing of
// this one.
func (w *Wait) Done() {
	w.ep.Cancel(w.key)
	if w.ticking && !w.timer.Stop() {
		// The timer fired unobserved. With asynchronous timer channels
		// (go.mod's go 1.22 selects them) its tick is buffered or on its
		// way, and Reset would not discard it; with synchronous ones Stop
		// discards it and reports true instead.
		<-w.timer.C()
	}
	w.ticking = false
	// With the wait cancelled no delivery touches the channel again: take
	// out a reply that landed after the last receive.
	select {
	case <-w.reply:
	default:
	}
	w.ep = nil
	waits.Put(w)
}
