// Package router is a fixture for the wall-clock half of the determinism
// analyzer: a protocol package reads the time and arms its timers on the
// transport's clock. Its map iteration order and randomness are not
// checked. The external test file that sorts before this one must not
// hide the package from the analyzer.
package router

import (
	"math/rand"
	"time"
)

// Clock stands in for transport.Clock.
type Clock interface {
	Now() time.Time
	AfterFunc(d time.Duration, f func()) func() bool
}

// Router reads the time through its clock.
type Router struct {
	clock Clock
	seen  map[int]bool
}

// Stamp reads the injected clock: allowed.
func (r *Router) Stamp() time.Time { return r.clock.Now() }

// WallStamp reads the wall clock.
func (r *Router) WallStamp() time.Time {
	return time.Now() // want "wall-clock read time.Now in protocol code"
}

// Retry arms a retransmission on the wall clock.
func (r *Router) Retry(f func()) {
	time.AfterFunc(time.Second, f) // want "wall-clock timer time.AfterFunc in protocol code"
}

// Loop ticks on the wall clock.
func (r *Router) Loop() {
	t := time.NewTicker(time.Second) // want "wall-clock timer time.NewTicker in protocol code"
	defer t.Stop()
	<-time.After(time.Second) // want "wall-clock timer time.After in protocol code"
}

// Backoff sleeps on the wall clock.
func Backoff() {
	time.Sleep(time.Millisecond) // want "wall-clock timer time.Sleep in protocol code"
}

// Seen lists neighbours in map order and jitters from the global source:
// outside the protocol packages' rule.
func (r *Router) Seen() []int {
	var out []int
	for n := range r.seen {
		out = append(out, n)
	}
	_ = rand.Intn(3)
	return out
}

// Synced waits on goroutines, not on protocol time: the one exemption a
// package may name, with its reason.
func Synced(ready func() bool) {
	for !ready() {
		//drtplint:ignore determinism waits on goroutines, not on protocol time
		time.Sleep(time.Millisecond)
	}
}
