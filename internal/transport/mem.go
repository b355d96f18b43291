package transport

import (
	"sync"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/proto"
)

// Mem is an in-memory switchboard connecting router endpoints by node ID.
// Delivery is asynchronous and order-preserving per sender-receiver pair:
// Send puts the message straight into the receiver's inbox channel, and
// only when that is full does it join a backlog, fed into the inbox in
// order by a goroutine that runs while the backlog exists. Senders never
// block on slow receivers. Mem injects no loss of its own; wrap it in a
// faultinject.Injector for a lossy signalling network.
type Mem struct {
	clock     Clock
	mu        sync.Mutex
	endpoints map[graph.NodeID]*memEndpoint
	closed    bool
}

// NewMem creates an empty switchboard on the wall clock.
func NewMem() *Mem { return NewMemOn(Wall) }

// NewMemOn creates an empty switchboard whose endpoints carry clock.
func NewMemOn(clock Clock) *Mem {
	return &Mem{clock: clock, endpoints: make(map[graph.NodeID]*memEndpoint)}
}

// Attach creates the endpoint for a node. Attaching the same node twice
// replaces the previous endpoint only if it was closed.
func (m *Mem) Attach(node graph.NodeID) (Endpoint, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if old, ok := m.endpoints[node]; ok && !old.isClosed() {
		return nil, ErrUnknownPeer
	}
	ep := &memEndpoint{
		mem:  m,
		node: node,
		in:   inbox{recv: make(chan proto.Envelope, inboxDepth)},
		done: make(chan struct{}),
	}
	m.endpoints[node] = ep
	return ep, nil
}

// Close shuts down the switchboard and every endpoint.
func (m *Mem) Close() error {
	m.mu.Lock()
	eps := make([]*memEndpoint, 0, len(m.endpoints))
	for _, ep := range m.endpoints {
		eps = append(eps, ep)
	}
	m.closed = true
	m.mu.Unlock()
	for _, ep := range eps {
		_ = ep.Close()
	}
	return nil
}

func (m *Mem) lookup(node graph.NodeID) (*memEndpoint, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ep, ok := m.endpoints[node]
	return ep, ok
}

// memEndpoint is one node's mailbox.
type memEndpoint struct {
	mem  *Mem
	node graph.NodeID
	in   inbox
	done chan struct{}
	// drainers counts the backlog goroutine (at most one runs), so Close
	// can wait for it before closing the inbox channels.
	drainers sync.WaitGroup

	mu sync.Mutex
	// delivering is set once the inbox has opened; guarded by mu.
	delivering bool
	// backlog holds, in arrival order, the messages that found the inbox
	// full or arrived before it opened; guarded by mu.
	backlog []proto.Envelope
	// draining is set while a drain goroutine owns delivery: every new
	// message then joins the backlog; guarded by mu.
	draining bool
	closed   bool
}

var _ Endpoint = (*memEndpoint)(nil)

// Node implements Endpoint.
func (e *memEndpoint) Node() graph.NodeID { return e.node }

// Clock implements Endpoint.
func (e *memEndpoint) Clock() Clock { return e.mem.clock }

// Send implements Endpoint.
func (e *memEndpoint) Send(to graph.NodeID, msg proto.Message) error {
	if e.isClosed() {
		return ErrClosed
	}
	dst, ok := e.mem.lookup(to)
	if !ok {
		return ErrUnknownPeer
	}
	return dst.enqueue(proto.Envelope{From: e.node, To: to, Msg: msg})
}

// Recv implements Endpoint.
func (e *memEndpoint) Recv() <-chan proto.Envelope {
	if !e.in.opened.Load() {
		e.in.open(nil, e.startDelivery)
	}
	return e.in.recv
}

// Split implements Endpoint.
func (e *memEndpoint) Split(divert func(proto.Message) bool) <-chan proto.Envelope {
	return e.in.split(divert, e.startDelivery)
}

// Await implements Endpoint.
func (e *memEndpoint) Await(k proto.ReplyKey, ch chan<- proto.Envelope) error {
	return e.in.await(k, ch)
}

// Cancel implements Endpoint.
func (e *memEndpoint) Cancel(k proto.ReplyKey) { e.in.cancel(k) }

// Close implements Endpoint.
func (e *memEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.backlog = nil
	e.mu.Unlock()
	close(e.done)
	e.drainers.Wait()
	e.in.close()
	return nil
}

func (e *memEndpoint) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// enqueue delivers one message: an awaited reply to its waiter; any other
// straight into its inbox channel when no backlog is ahead of it and the
// channel has room, else onto the backlog, starting the goroutine that
// drains it if none runs. The channel send never blocks, so it is made
// under mu, which Close takes before closing the channels; the split, the
// caller's code, runs before the lock. A message that finds delivery
// begun but picked no channel (nil: the inbox opened in between) takes
// the backlog path.
func (e *memEndpoint) enqueue(env proto.Envelope) error {
	var ch chan<- proto.Envelope
	if e.in.opened.Load() {
		if e.in.complete(env) {
			return nil
		}
		ch = e.in.to(env.Msg)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if e.delivering && !e.draining {
		select {
		case ch <- env:
			return nil
		default:
			e.startDrainLocked()
		}
	}
	e.backlog = append(e.backlog, env)
	return nil
}

// startDelivery opens the inbox to deliveries, starting with whatever
// arrived before it opened.
func (e *memEndpoint) startDelivery() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.delivering = true
	if len(e.backlog) > 0 && !e.closed {
		e.startDrainLocked()
	}
}

// startDrainLocked hands delivery to a new drain goroutine; the caller
// holds mu.
func (e *memEndpoint) startDrainLocked() {
	e.draining = true
	e.drainers.Add(1)
	go e.drain()
}

// drain feeds the backlog into the inbox in arrival order, and exits once
// the backlog is empty or the endpoint closes. A reply that waited in the
// backlog for the inbox to open goes to its waiter, if it has one.
func (e *memEndpoint) drain() {
	defer e.drainers.Done()
	for {
		e.mu.Lock()
		if len(e.backlog) == 0 || e.closed {
			e.draining = false
			e.backlog = nil
			e.mu.Unlock()
			return
		}
		env := e.backlog[0]
		// The backing array outlives the pop until append next
		// reallocates: drop its reference to the message (an LSUpdate
		// carries a CV per link).
		e.backlog[0] = proto.Envelope{}
		e.backlog = e.backlog[1:]
		e.mu.Unlock()
		if e.in.complete(env) {
			continue
		}
		select {
		case e.in.to(env.Msg) <- env:
		case <-e.done:
			return
		}
	}
}
