// Package ignoreone pins the other half of the suppression contract: a
// justified ignore directive suppresses exactly one diagnostic, so a
// line with two findings keeps one visible.
package ignoreone

import "sync"

// Relay forwards under its lock: a send and a receive on one line.
type Relay struct {
	mu sync.Mutex
	ch chan int
}

// Two blocks twice on one line while holding the lock — two findings.
// The directive absorbs the first (the send); the receive must survive.
func (r *Relay) Two() {
	r.mu.Lock()
	defer r.mu.Unlock()
	//drtplint:ignore lockorder demonstrating that one directive suppresses one finding
	r.ch <- <-r.ch
}
