// Package lockfix is lockorder's guarded-by fixture: annotations with
// compliant critical sections, violations, and malformed annotations.
package lockfix

import "sync"

// Pool has two guarded fields and one unguarded field.
type Pool struct {
	mu sync.Mutex
	// conns is the active connection set; guarded by mu.
	conns map[int]string
	// free is the freelist; guarded by mu.
	free []int
	name string
}

// Add holds mu via defer for the whole body.
func (p *Pool) Add(id int, addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.conns[id] = addr
	p.free = append(p.free, id)
}

// Get brackets the access with Lock/Unlock.
func (p *Pool) Get(id int) string {
	p.mu.Lock()
	v := p.conns[id]
	p.mu.Unlock()
	return v
}

// Leak reads a guarded field with no lock at all.
func (p *Pool) Leak(id int) string {
	return p.conns[id] // want "access to field conns .guarded by mu. outside mu critical section"
}

// Race releases the lock before the access.
func (p *Pool) Race(id int) {
	p.mu.Lock()
	p.mu.Unlock()
	delete(p.conns, id) // want "access to field conns"
}

// Name reads an unguarded field: fine.
func (p *Pool) Name() string {
	return p.name
}

// lenLocked runs under the caller-held mu by the Locked-suffix convention.
func (p *Pool) lenLocked() int {
	return len(p.conns)
}

// Bad carries malformed annotations.
type Bad struct {
	// guarded by missing.
	x int // want "struct Bad has no field missing"
	// guarded by y.
	z int // want "field y is not a sync.Mutex or sync.RWMutex"
	y int
}
