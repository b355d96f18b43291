// Package lockorder is the lockorder fixture: acquisition-order cycles
// (same-package, via calls, and across a package boundary), double-locks,
// and blocking operations inside critical sections.
package lockorder

import (
	"net"
	"sync"
	"time"

	"lockorder/sub"
	"telemetry"
)

// A and B form a two-lock cycle: AB acquires B's lock (through a call)
// while holding A's, BA acquires A's directly while holding B's.
type A struct {
	mu sync.Mutex
	n  int
}

type B struct {
	mu sync.Mutex
	n  int
}

func (b *B) grab() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

// AB holds A.mu and calls into a function that takes B.mu.
func (a *A) AB(b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.grab() // want "lock-order cycle: lockorder.B.mu acquired while holding lockorder.A.mu"
	a.n++
}

// BA holds B.mu and takes A.mu directly — the reverse order.
func (b *B) BA(a *A) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock() // want "lock-order cycle: lockorder.A.mu acquired while holding lockorder.B.mu"
	a.n++
	a.mu.Unlock()
}

// C exercises the double-lock diagnostics.
type C struct {
	mu sync.Mutex
	n  int
}

func (c *C) Double() {
	c.mu.Lock()
	c.mu.Lock() // want "double-lock"
	c.n++
	c.mu.Unlock()
}

func (c *C) helper() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// Reenter self-deadlocks through a call: helper reacquires the held lock.
func (c *C) Reenter() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.helper() // want "self-deadlock"
}

// R: recursive read-locking is legal, upgrading to a write lock is not.
type R struct {
	mu sync.RWMutex
	n  int
}

func (r *R) ReadTwice() int {
	r.mu.RLock()
	r.mu.RLock()
	v := r.n
	r.mu.RUnlock()
	r.mu.RUnlock()
	return v
}

func (r *R) Upgrade() {
	r.mu.RLock()
	r.mu.Lock() // want "double-lock"
	r.n++
	r.mu.Unlock()
	r.mu.RUnlock()
}

// S exercises the blocking-under-lock diagnostics.
type S struct {
	mu sync.Mutex
	ch chan int
	wg sync.WaitGroup
	n  int
}

func (s *S) Blockers(conn net.Conn, sink telemetry.Sink) {
	s.mu.Lock()
	s.ch <- 1                      // want "channel send while holding lockorder.S.mu"
	<-s.ch                         // want "channel receive while holding lockorder.S.mu"
	s.wg.Wait()                    // want "sync.WaitGroup.Wait while holding"
	time.Sleep(time.Millisecond)   // want "time.Sleep while holding"
	_, _ = conn.Write([]byte{1})   // want "net I/O"
	sink.Record("under the mutex") // want "telemetry sink Record"
	s.mu.Unlock()
}

// SelectNoDefault blocks until a case fires: flagged.
func (s *S) SelectNoDefault() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "select without default while holding"
	case v := <-s.ch:
		s.n = v
	}
}

// SelectDefault is non-blocking by construction: not flagged.
func (s *S) SelectDefault() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case v := <-s.ch:
		s.n = v
	default:
	}
}

// AfterUnlock blocks only outside the critical section: not flagged.
func (s *S) AfterUnlock() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.ch <- s.n
	s.wg.Wait()
}

// SpawnUnderLock hands work to a goroutine; the body runs later, outside
// the critical section, so nothing is flagged.
func (s *S) SpawnUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.ch <- 1
	}()
}

// X closes a cross-package cycle with sub.Store: Hold takes the store's
// exported mutex under its own, Cross calls a store method (assumed to
// take sub.Store.Mu) under its own.
type X struct {
	mu sync.Mutex
	n  int
}

func (x *X) Hold(st *sub.Store) {
	st.Mu.Lock()
	defer st.Mu.Unlock()
	x.mu.Lock() // want "lock-order cycle: lockorder.X.mu acquired while holding sub.Store.Mu"
	x.n++
	x.mu.Unlock()
}

func (x *X) Cross(st *sub.Store) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return st.Get() // want "lock-order cycle: sub.Store.Mu acquired while holding lockorder.X.mu"
}

// CrossLocked calls only a *Locked method under its lock: by convention
// the callee acquires nothing, so no edge and no cycle.
type Y struct {
	mu sync.Mutex
}

func (y *Y) CrossLocked(st *sub.Store) int {
	y.mu.Lock()
	defer y.mu.Unlock()
	return st.SizeLocked()
}

// Z hides its cross-package call inside a *Locked helper: the helper's
// body is walked with the mutex guarding the fields it touches held, so
// the ordering the caller's lock imposes is still seen (here it closes a
// cycle with Hold).
type Z struct {
	mu sync.Mutex
	// n counts reads; guarded by mu.
	n int
}

func (z *Z) Hold(st *sub.Store) {
	st.Mu.Lock()
	defer st.Mu.Unlock()
	z.mu.Lock() // want "lock-order cycle: lockorder.Z.mu acquired while holding sub.Store.Mu"
	z.n++
	z.mu.Unlock()
}

func (z *Z) Read(st *sub.Store) int {
	z.mu.Lock()
	defer z.mu.Unlock()
	return z.readLocked(st)
}

func (z *Z) readLocked(st *sub.Store) int {
	z.n++
	return st.Get() // want "lock-order cycle: sub.Store.Mu acquired while holding lockorder.Z.mu"
}

// relockLocked re-acquires the lock its suffix says the caller holds.
func (z *Z) relockLocked() {
	z.mu.Lock() // want "lockorder.Z.mu.Lock while lockorder.Z.mu is already held"
	z.n++
	z.mu.Unlock()
}
