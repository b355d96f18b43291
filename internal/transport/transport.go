// Package transport moves DRTP protocol messages between routers. Two
// implementations are provided: an in-memory switchboard for simulations
// and tests, and a TCP mesh framing messages with proto's binary wire
// codec for real deployments.
package transport

import (
	"errors"
	"sync"
	"sync/atomic"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/proto"
)

// ErrClosed is returned by Send after the transport endpoint is closed.
var ErrClosed = errors.New("transport: closed")

// ErrUnknownPeer is returned when sending to a node with no endpoint.
var ErrUnknownPeer = errors.New("transport: unknown peer")

// ErrAwaited is returned by Await for a reply key that already has a
// waiter.
var ErrAwaited = errors.New("transport: reply already awaited")

// Endpoint is one router's attachment to the transport. Every
// implementation guarantees:
//
//   - Order: messages from one sender to one receiver are received in the
//     order they were sent (over TCP, per connection: a redial after a
//     peer restart starts a new one).
//   - Asynchrony: a message is handed straight to the receiver's inbox,
//     a buffered channel, by whoever delivers it. On Mem, Send never
//     blocks on a slow receiver: what does not fit the inbox waits in a
//     backlog, and once a backlog exists every later message queues
//     behind it. Over TCP a slow receiver stalls its connection's reader,
//     and Send blocks once the socket buffers are full.
//   - Split at delivery: delivery starts at the first Recv or Split call;
//     whatever arrives before waits. Split installs a predicate that is
//     applied where each message is delivered, so no goroutine relays
//     between the endpoint and either reader.
//   - Replies to their waiter: a reply whose key (proto.ReplyKeyOf) is
//     awaited goes, where it is delivered, straight to the channel its
//     caller passed to Await: it bypasses Recv, Split and any backlog, so
//     it may overtake earlier messages from its sender. A reply nobody
//     awaits, or whose wait was cancelled, is delivered like any other
//     message.
//   - Close: messages in a backlog or still in flight are dropped; those
//     already in an inbox channel stay readable, after which the channel
//     reports closed. Waits end with the endpoint.
type Endpoint interface {
	// Node returns the ID this endpoint belongs to.
	Node() graph.NodeID
	// Clock returns the transport's clock, which whatever attaches to
	// the endpoint reads its time and arms its timers on.
	Clock() Clock
	// Send delivers a message to another node's endpoint. Delivery is
	// asynchronous: Send does not wait for the receiver to read it.
	Send(to graph.NodeID, msg proto.Message) error
	// Recv returns the channel of inbound messages, minus those a Split
	// diverts. The channel is closed when the endpoint is closed.
	Recv() <-chan proto.Envelope
	// Split diverts every inbound message for which divert returns true
	// to the returned channel, which closes with the endpoint. divert
	// runs on whichever goroutine delivers the message, so it must be
	// cheap and must not call the endpoint. Split must be called at most
	// once, with a non-nil divert, before the first Recv and before
	// Close; a later call panics, since messages may already have been
	// delivered undiverted.
	Split(divert func(proto.Message) bool) <-chan proto.Envelope
	// Await hands every inbound reply keyed k to ch, until Cancel(k), with
	// a send that never blocks: a reply finding ch full is dropped. It
	// refuses a key already awaited (ErrAwaited) and a closed endpoint
	// (ErrClosed). The caller owns ch; the endpoint never closes it.
	Await(k proto.ReplyKey, ch chan<- proto.Envelope) error
	// Cancel ends the wait for k. Once it returns, no delivery touches the
	// channel Await was given.
	Cancel(k proto.ReplyKey)
	// Close shuts the endpoint down and releases its resources.
	Close() error
}

// Attacher opens a node's endpoint on a transport. Mem, TCPMesh and the
// fault injector wrapping either satisfy it, so a router cluster, a
// control-plane deployment or a chaos test runs over any of them.
type Attacher interface {
	Attach(node graph.NodeID) (Endpoint, error)
}

// inboxDepth is the capacity of each inbound channel. A message rarely
// finds another one waiting, and every endpoint holds one or two of
// these: 16 was measured on the ledger's cp_mem workload, where a depth
// of 256 raised live_heap_mb by 17 %.
const inboxDepth = 16

// inbox is the receiving side of an endpoint: the channel Recv returns,
// the channel a Split diverts to, and the predicate between them, fixed
// once, when the inbox opens, before anything is delivered; and the
// table of awaited replies.
type inbox struct {
	recv   chan proto.Envelope
	agent  chan proto.Envelope // nil without a split
	divert func(proto.Message) bool
	// opened is set once agent and divert are fixed: from then on any
	// goroutine may pick a message's channel with to.
	opened atomic.Bool
	once   sync.Once

	wmu sync.Mutex
	// waiters maps each awaited reply key to its caller's channel;
	// guarded by wmu.
	waiters map[proto.ReplyKey]chan<- proto.Envelope
	// sealed is set by close, after which nothing is awaited; guarded by
	// wmu.
	sealed bool
}

// open installs divert (nil: no split), then runs start, which lets
// deliveries begin; only the first call does anything, and it reports
// whether this call was that one.
func (b *inbox) open(divert func(proto.Message) bool, start func()) bool {
	first := false
	b.once.Do(func() {
		if divert != nil {
			b.divert = divert
			b.agent = make(chan proto.Envelope, inboxDepth)
		}
		b.opened.Store(true)
		start()
		first = true
	})
	return first
}

// split implements Endpoint.Split on top of open.
func (b *inbox) split(divert func(proto.Message) bool, start func()) <-chan proto.Envelope {
	if divert == nil || !b.open(divert, start) {
		panic("transport: Split with a nil predicate, or after delivery began")
	}
	return b.agent
}

// to returns the channel a message is delivered on.
func (b *inbox) to(msg proto.Message) chan<- proto.Envelope {
	if b.divert != nil && b.divert(msg) {
		return b.agent
	}
	return b.recv
}

// await implements Endpoint.Await.
func (b *inbox) await(k proto.ReplyKey, ch chan<- proto.Envelope) error {
	b.wmu.Lock()
	defer b.wmu.Unlock()
	switch {
	case b.sealed:
		return ErrClosed
	case b.waiters[k] != nil:
		return ErrAwaited
	case b.waiters == nil:
		b.waiters = make(map[proto.ReplyKey]chan<- proto.Envelope)
	}
	b.waiters[k] = ch
	return nil
}

// cancel implements Endpoint.Cancel.
func (b *inbox) cancel(k proto.ReplyKey) {
	b.wmu.Lock()
	delete(b.waiters, k)
	b.wmu.Unlock()
}

// complete hands env to the waiter of its reply key and reports whether
// one awaited it; a waiter whose channel is full loses env. The send is
// made under wmu, so a cancelled waiter's channel is never touched after
// cancel returns.
func (b *inbox) complete(env proto.Envelope) bool {
	k, ok := proto.ReplyKeyOf(env.Msg)
	if !ok {
		return false
	}
	b.wmu.Lock()
	defer b.wmu.Unlock()
	ch := b.waiters[k]
	if ch == nil {
		return false
	}
	select {
	case ch <- env:
	default:
	}
	return true
}

// close closes the channels and ends every wait; no delivery to the
// channels may be running or start later. It seals the inbox first, so a
// Split after Close panics like one after Recv.
func (b *inbox) close() {
	b.once.Do(func() {})
	b.wmu.Lock()
	b.sealed, b.waiters = true, nil
	b.wmu.Unlock()
	close(b.recv)
	if b.agent != nil {
		close(b.agent)
	}
}
