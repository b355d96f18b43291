package transport

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the one time source of the distributed tier: routers, the
// control plane, the transports and the fault injector read the time and
// arm their timers through it, never through package time. An endpoint
// carries its transport's clock (Endpoint.Clock), so everything attached
// to one transport runs on one clock: Wall for a live deployment, a
// ManualClock for a test that moves time itself.
type Clock interface {
	Now() time.Time
	NewTimer(d time.Duration) Timer
	NewTicker(d time.Duration) Ticker
	// AfterFunc calls f once d has passed.
	AfterFunc(d time.Duration, f func())
}

// Timer is a one-shot timer of a Clock, with time.Timer's semantics:
// Stop and Reset report whether the timer was running, and a tick that
// fired unreceived stays in its channel.
type Timer interface {
	C() <-chan time.Time
	Stop() bool
	Reset(d time.Duration) bool
}

// Ticker is a periodic timer of a Clock. Like time.Ticker's, its channel
// holds one tick, and ticks nobody receives are dropped.
type Ticker interface {
	C() <-chan time.Time
	Stop()
}

// Wall is the wall clock, package time's; Mem and TCPMesh run on it
// unless built on another.
var Wall Clock = wallClock{}

type wallClock struct{}

//drtplint:ignore determinism the wall clock's own implementation
func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) NewTimer(d time.Duration) Timer {
	//drtplint:ignore determinism the wall clock's own implementation
	return wallTimer{time.NewTimer(d)}
}

func (wallClock) NewTicker(d time.Duration) Ticker {
	//drtplint:ignore determinism the wall clock's own implementation
	return wallTicker{time.NewTicker(d)}
}

func (wallClock) AfterFunc(d time.Duration, f func()) {
	//drtplint:ignore determinism the wall clock's own implementation
	time.AfterFunc(d, f)
}

// wallTimer and wallTicker hold one pointer each, so an interface holds
// them without an allocation.
type wallTimer struct{ *time.Timer }

func (t wallTimer) C() <-chan time.Time { return t.Timer.C }

type wallTicker struct{ *time.Ticker }

func (t wallTicker) C() <-chan time.Time { return t.Ticker.C }

// ManualClock is a Clock that moves only when told to: Advance and Set
// fire every timer, ticker and after-func that falls due, in deadline
// order (in arming order at one deadline), each at its own deadline. A
// tick goes to its channel without blocking; an after-func runs on the
// goroutine that moved the clock, or on one of its own when it is armed
// already due.
type ManualClock struct {
	mu  sync.Mutex
	now time.Time
	seq uint64
	due manualQueue
	// sent holds the timers with a tick sent that Idle has not yet seen
	// received.
	sent map[*manualTimer]struct{}
}

// NewManualClock returns a clock stopped at start.
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{now: start}
}

// Now implements Clock.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// NewTimer implements Clock.
func (c *ManualClock) NewTimer(d time.Duration) Timer {
	t := &manualTimer{clock: c, ch: make(chan time.Time, 1), index: -1}
	t.Reset(d)
	return t
}

// NewTicker implements Clock.
func (c *ManualClock) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("transport: non-positive interval for NewTicker")
	}
	t := &manualTimer{clock: c, ch: make(chan time.Time, 1), period: d, index: -1}
	t.Reset(d)
	return manualTicker{t}
}

// AfterFunc implements Clock.
func (c *ManualClock) AfterFunc(d time.Duration, f func()) {
	(&manualTimer{clock: c, fn: f, index: -1}).Reset(d)
}

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	to := c.now.Add(d)
	c.mu.Unlock()
	c.Set(to)
}

// Set moves the clock forward to t; a t not after Now fires nothing and
// leaves the clock where it is.
func (c *ManualClock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.due) > 0 && !c.due[0].when.After(t) {
		next := c.due[0]
		if next.when.After(c.now) {
			c.now = next.when
		}
		if next.period > 0 {
			next.when = next.when.Add(next.period)
			heap.Fix(&c.due, 0)
		} else {
			heap.Pop(&c.due)
		}
		if next.fn != nil {
			c.mu.Unlock()
			next.fn()
			c.mu.Lock()
			continue
		}
		c.send(next)
	}
	if t.After(c.now) {
		c.now = t
	}
}

// send puts a tick in t's channel unless one waits there already; the
// caller holds c.mu.
func (c *ManualClock) send(t *manualTimer) {
	select {
	case t.ch <- c.now:
		if c.sent == nil {
			c.sent = make(map[*manualTimer]struct{})
		}
		c.sent[t] = struct{}{}
	default:
	}
}

// Idle reports whether every tick the clock has sent has been received,
// but for those of stopped timers: a test that moves the clock waits for
// it before it reads what the goroutines did.
func (c *ManualClock) Idle() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for t := range c.sent {
		if len(t.ch) > 0 && !t.stopped {
			return false
		}
		delete(c.sent, t)
	}
	return true
}

// manualTimer is a ManualClock's timer, ticker (period > 0) or after-func
// (fn set).
type manualTimer struct {
	clock  *ManualClock
	ch     chan time.Time
	fn     func()
	period time.Duration
	// when, seq and index place the timer in its clock's queue (index -1:
	// not queued), and stopped is set by Stop until the next Reset; all
	// four are read and written under the clock's lock.
	when    time.Time
	seq     uint64
	index   int
	stopped bool
}

func (t *manualTimer) C() <-chan time.Time { return t.ch }

// Stop implements Timer.
func (t *manualTimer) Stop() bool {
	c := t.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	t.stopped = true
	if t.index < 0 {
		return false
	}
	heap.Remove(&c.due, t.index)
	return true
}

// Reset implements Timer. A timer reset to a deadline not after Now fires
// at once.
func (t *manualTimer) Reset(d time.Duration) bool {
	c := t.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	active := t.index >= 0
	if active {
		heap.Remove(&c.due, t.index)
	}
	t.stopped = false
	switch {
	case d > 0 || t.period > 0:
		c.seq++
		t.when, t.seq = c.now.Add(d), c.seq
		heap.Push(&c.due, t)
	case t.fn != nil:
		go t.fn()
	default:
		c.send(t)
	}
	return active
}

type manualTicker struct{ *manualTimer }

func (t manualTicker) Stop() { t.manualTimer.Stop() }

// manualQueue is a ManualClock's armed timers, a heap by deadline, then
// by arming order.
type manualQueue []*manualTimer

func (q manualQueue) Len() int { return len(q) }

func (q manualQueue) Less(i, j int) bool {
	if !q[i].when.Equal(q[j].when) {
		return q[i].when.Before(q[j].when)
	}
	return q[i].seq < q[j].seq
}

func (q manualQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}

func (q *manualQueue) Push(x any) {
	t := x.(*manualTimer)
	t.index = len(*q)
	*q = append(*q, t)
}

func (q *manualQueue) Pop() any {
	old := *q
	t := old[len(old)-1]
	old[len(old)-1] = nil
	t.index = -1
	*q = old[:len(old)-1]
	return t
}
