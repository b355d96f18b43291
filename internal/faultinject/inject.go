package faultinject

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/rng"
	"github.com/rtcl/drtp/internal/telemetry"
	"github.com/rtcl/drtp/internal/transport"
)

// Stats counts the faults an Injector has applied.
type Stats struct {
	Drops          int64
	Dups           int64
	Reorders       int64
	Delays         int64
	CrashDrops     int64
	PartitionDrops int64
}

// Total sums all fault counts.
func (s Stats) Total() int64 {
	return s.Drops + s.Dups + s.Reorders + s.Delays + s.CrashDrops + s.PartitionDrops
}

// Option configures an Injector.
type Option func(*Injector)

// WithClock sets the clock schedule windows are read on: time t is t
// delay units (WithDelayUnit) after New. Without it every window is read
// at time 0, so rules with Start 0 are always active; live deployments
// pass transport.Wall, tests a transport.ManualClock.
func WithClock(c transport.Clock) Option {
	return func(in *Injector) { in.clock = c }
}

// WithTracer emits one fault-injected telemetry event per applied fault.
func WithTracer(t *telemetry.Tracer) Option {
	return func(in *Injector) { in.tracer = t }
}

// WithDelayUnit sets the duration of one schedule time unit, for
// LinkRule.Delay and for windows alike (default time.Millisecond; drtpnode
// uses time.Second).
func WithDelayUnit(d time.Duration) Option {
	return func(in *Injector) { in.delayUnit = d }
}

// Injector wraps a transport.Attacher and applies a Schedule to every message
// sent through its endpoints. Each ordered node pair draws decisions
// from its own rng.Split-derived stream consumed in that pair's send
// order, so the fault sequence a sender experiences is independent of
// how other senders' goroutines interleave.
type Injector struct {
	sched     *Schedule
	inner     transport.Attacher
	clock     transport.Clock // nil: windows are read at 0
	origin    time.Time       // the clock's time 0
	delayUnit time.Duration
	tracer    *telemetry.Tracer

	mu    sync.Mutex
	pairs map[pairKey]*pairState
	// senders maps each attached node to its raw inner endpoint, so
	// Flush delivers held messages without re-injecting them; a failed
	// delivery is a fault outcome, not an error.
	senders map[graph.NodeID]transport.Endpoint
	stats   Stats
}

type pairKey struct {
	from, to graph.NodeID
}

type pairState struct {
	rng *rng.Source
	// held is the one-slot reorder buffer: a reordered message waits here
	// and is delivered right after the pair's next message.
	held proto.Message
}

// New wraps inner with the schedule. A nil or empty schedule yields a
// transparent pass-through.
func New(sched *Schedule, inner transport.Attacher, opts ...Option) *Injector {
	in := &Injector{
		sched:     sched,
		inner:     inner,
		delayUnit: time.Millisecond,
		pairs:     make(map[pairKey]*pairState),
		senders:   make(map[graph.NodeID]transport.Endpoint),
	}
	for _, o := range opts {
		o(in)
	}
	if in.clock != nil {
		in.origin = in.clock.Now()
	}
	return in
}

// now is the schedule time windows are read at.
func (in *Injector) now() float64 {
	if in.clock == nil {
		return 0
	}
	return float64(in.clock.Now().Sub(in.origin)) / float64(in.delayUnit)
}

// Stats returns a snapshot of the applied-fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Attach wraps the inner endpoint for node.
func (in *Injector) Attach(node graph.NodeID) (transport.Endpoint, error) {
	ep, err := in.inner.Attach(node)
	if err != nil {
		return nil, err
	}
	in.mu.Lock()
	in.senders[node] = ep
	in.mu.Unlock()
	return &injEndpoint{in: in, inner: ep}, nil
}

// Flush delivers every held (reordered) message immediately, in node-pair
// order. Call after quiescence so no message is stranded in the one-slot
// reorder buffers.
func (in *Injector) Flush() {
	in.mu.Lock()
	keys := make([]pairKey, 0, len(in.pairs))
	for k, st := range in.pairs {
		if st.held != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	type flush struct {
		ep  transport.Endpoint
		to  graph.NodeID
		msg proto.Message
	}
	out := make([]flush, 0, len(keys))
	for _, k := range keys {
		st := in.pairs[k]
		out = append(out, flush{ep: in.senders[k.from], to: k.to, msg: st.held})
		st.held = nil
	}
	in.mu.Unlock()
	for _, f := range out {
		_ = f.ep.Send(f.to, f.msg)
	}
}

// pair returns the decision stream state for one ordered node pair,
// derived as Split("pair/F->T") — a pure function of (seed, pair).
func (in *Injector) pair(from, to graph.NodeID) *pairState {
	k := pairKey{from: from, to: to}
	st := in.pairs[k]
	if st == nil {
		st = &pairState{rng: in.sched.Split(fmt.Sprintf("pair/%d->%d", from, to))}
		in.pairs[k] = st
	}
	return st
}

// note records one applied fault.
func (in *Injector) note(counter *int64, from graph.NodeID, action string) {
	in.mu.Lock()
	*counter++
	in.mu.Unlock()
	in.tracer.FaultInjected(int(from), -1, -1, action)
}

// injEndpoint is the chaos-wrapped endpoint of one node.
type injEndpoint struct {
	in    *Injector
	inner transport.Endpoint
}

var _ transport.Endpoint = (*injEndpoint)(nil)

// Node implements transport.Endpoint.
func (e *injEndpoint) Node() graph.NodeID { return e.inner.Node() }

// Clock implements transport.Endpoint: the inner transport's clock, which
// delays run on too.
func (e *injEndpoint) Clock() transport.Clock { return e.inner.Clock() }

// Recv implements transport.Endpoint.
func (e *injEndpoint) Recv() <-chan proto.Envelope { return e.inner.Recv() }

// Split implements transport.Endpoint: faults act on sends, so the inner
// endpoint applies the split where it delivers.
func (e *injEndpoint) Split(divert func(proto.Message) bool) <-chan proto.Envelope {
	return e.inner.Split(divert)
}

// Await implements transport.Endpoint: faults act on sends, so the inner
// endpoint hands awaited replies to their waiters where it delivers.
func (e *injEndpoint) Await(k proto.ReplyKey, ch chan<- proto.Envelope) error {
	return e.inner.Await(k, ch)
}

// Cancel implements transport.Endpoint.
func (e *injEndpoint) Cancel(k proto.ReplyKey) { e.inner.Cancel(k) }

// Close implements transport.Endpoint.
func (e *injEndpoint) Close() error { return e.inner.Close() }

// Send implements transport.Endpoint, applying the schedule.
func (e *injEndpoint) Send(to graph.NodeID, msg proto.Message) error {
	in := e.in
	from := e.inner.Node()
	now := in.now()

	// Crash and partition windows silence everything, hellos included,
	// so hello-based failure detection fires on the survivors.
	if in.sched.crashed(from, now) || in.sched.crashed(to, now) {
		in.note(&in.stats.CrashDrops, from, "crash")
		return nil
	}
	if in.sched.partitioned(from, to, now) {
		in.note(&in.stats.PartitionDrops, from, "partition")
		return nil
	}

	rule := in.sched.match(from, to, now)
	if rule == nil {
		return e.inner.Send(to, msg)
	}
	if _, isHello := msg.(proto.Hello); isHello && !rule.Hello {
		return e.inner.Send(to, msg)
	}

	// Decisions are drawn in a fixed order (drop, dup, reorder) from the
	// pair's stream so the sequence depends only on the pair's own send
	// order.
	in.mu.Lock()
	st := in.pair(from, to)
	held := st.held
	st.held = nil
	drop := rule.Drop > 0 && st.rng.Float64() < rule.Drop
	dup := !drop && rule.Dup > 0 && st.rng.Float64() < rule.Dup
	reorder := !drop && rule.Reorder > 0 && st.rng.Float64() < rule.Reorder
	if reorder {
		st.held = msg
	}
	in.mu.Unlock()

	if drop {
		in.note(&in.stats.Drops, from, "drop")
		// A dropped message still releases a previously held one.
		if held != nil {
			err := e.inner.Send(to, held)
			return err
		}
		return nil
	}
	if reorder {
		in.note(&in.stats.Reorders, from, "reorder")
		// The held message (if any) goes out now; msg waits its turn.
		if held != nil {
			return e.inner.Send(to, held)
		}
		return nil
	}

	send := func(m proto.Message) error {
		if rule.Delay > 0 {
			in.note(&in.stats.Delays, from, "delay")
			d := time.Duration(rule.Delay * float64(in.delayUnit))
			inner := e.inner
			inner.Clock().AfterFunc(d, func() { _ = inner.Send(to, m) })
			return nil
		}
		return e.inner.Send(to, m)
	}
	err := send(msg)
	if held != nil {
		if err2 := send(held); err == nil {
			err = err2
		}
	}
	if dup {
		in.note(&in.stats.Dups, from, "dup")
		if err2 := send(msg); err == nil {
			err = err2
		}
	}
	return err
}
