package transport_test

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/faultinject"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/transport"
)

// memDrainer marks a Mem backlog goroutine in a goroutine dump: every
// one is created by startDrainLocked, and names it whether or not it has
// started running drain yet.
const memDrainer = "transport.(*memEndpoint).startDrainLocked"

// contractSenders send to one receiver, node contractSenders; each sends
// bursts of contractBurst messages.
const (
	contractSenders = 3
	contractBurst   = 10 * transport.InboxDepth
)

// contractTransport is one row of the Endpoint contract table.
type contractTransport struct {
	name string
	// attach returns endpoints for nodes 0..n-1, closed at cleanup.
	attach func(t *testing.T, n int) []transport.Endpoint
	// drainer marks the transport's backlog goroutine in a goroutine
	// dump; empty where the transport keeps no backlog.
	drainer string
}

type attacher interface {
	Attach(node graph.NodeID) (transport.Endpoint, error)
}

func attachAll(t *testing.T, at attacher, n int) []transport.Endpoint {
	t.Helper()
	eps := make([]transport.Endpoint, n)
	for i := range eps {
		ep, err := at.Attach(graph.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ep.Close() })
		eps[i] = ep
	}
	return eps
}

var contractTransports = []contractTransport{
	{
		name: "mem",
		attach: func(t *testing.T, n int) []transport.Endpoint {
			return attachAll(t, transport.NewMem(), n)
		},
		drainer: memDrainer,
	},
	{
		name: "tcp",
		attach: func(t *testing.T, n int) []transport.Endpoint {
			addrs := make(map[graph.NodeID]string, n)
			for i := 0; i < n; i++ {
				addrs[graph.NodeID(i)] = "127.0.0.1:0"
			}
			return attachAll(t, transport.NewTCPMesh(addrs), n)
		},
	},
	{
		name: "faultinject",
		attach: func(t *testing.T, n int) []transport.Endpoint {
			return attachAll(t, faultinject.New(&faultinject.Schedule{Seed: 1}, transport.NewMem()), n)
		},
		drainer: memDrainer,
	},
}

// sendBursts has every sender send Hellos numbered first..first+n-1 to
// the receiver, concurrently, and returns a wait that reports whether all
// of them finished within the timeout. A sender stops at its first
// error.
func sendBursts(eps []transport.Endpoint, first, n int) func(timeout time.Duration) bool {
	var wg sync.WaitGroup
	for s := 0; s < contractSenders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := first; i < first+n; i++ {
				if eps[s].Send(contractSenders, proto.Hello{From: graph.NodeID(s), Seq: uint64(i)}) != nil {
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	return func(timeout time.Duration) bool {
		select {
		case <-done:
			return true
		case <-time.After(timeout):
			return false
		}
	}
}

func recvFrom(t *testing.T, ch <-chan proto.Envelope) proto.Envelope {
	t.Helper()
	select {
	case env, ok := <-ch:
		if !ok {
			t.Fatal("inbox closed early")
		}
		return env
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for message")
		return proto.Envelope{}
	}
}

// goroutinesIn counts the goroutines whose entry in the goroutine
// profile holds the frame.
func goroutinesIn(frame string) int {
	var buf bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&buf, 2)
	n := 0
	for _, g := range bytes.Split(buf.Bytes(), []byte("\n\n")) {
		if bytes.Contains(g, []byte(frame)) {
			n++
		}
	}
	return n
}

// TestEndpointContract holds Mem, TCP and the fault injector's wrapper
// to what transport.Endpoint promises.
func TestEndpointContract(t *testing.T) {
	for _, tr := range contractTransports {
		t.Run(tr.name, func(t *testing.T) {
			t.Run("BacklogOrder", func(t *testing.T) { testBacklogOrder(t, tr) })
			t.Run("Split", func(t *testing.T) { testSplit(t, tr) })
			t.Run("CloseWhileDraining", func(t *testing.T) { testCloseWhileDraining(t, tr) })
			t.Run("ReplyPassesBacklog", func(t *testing.T) { testReplyPassesBacklog(t, tr) })
			t.Run("UnawaitedReplyInOrder", func(t *testing.T) { testUnawaitedReplyInOrder(t, tr) })
			t.Run("FullWaiterDrops", func(t *testing.T) { testFullWaiterDrops(t, tr) })
			t.Run("AwaitTwiceRefused", func(t *testing.T) { testAwaitTwiceRefused(t, tr) })
			t.Run("CloseWithWaiter", func(t *testing.T) { testCloseWithWaiter(t, tr) })
			if tr.drainer != "" {
				t.Run("BacklogDrainerExits", func(t *testing.T) { testDrainerExits(t, tr) })
			}
		})
	}
}

// testBacklogOrder: a burst ten inboxes deep from three senders to a
// receiver that is not reading blocks no sender; a second burst, one
// message from each sender after every two the receiver reads, finds
// room in the inbox but must queue behind what is already waiting, so
// every sender's messages arrive in order.
func testBacklogOrder(t *testing.T, tr contractTransport) {
	eps := tr.attach(t, contractSenders+1)
	in := eps[contractSenders].Recv()
	if !sendBursts(eps, 0, contractBurst)(5 * time.Second) {
		t.Fatal("a sender blocked on a receiver that is not reading")
	}
	var next [contractSenders]uint64
	read := func() {
		env := recvFrom(t, in)
		seq := env.Msg.(proto.Hello).Seq
		if seq != next[env.From] {
			t.Fatalf("message %d from node %d arrived when %d was due", seq, env.From, next[env.From])
		}
		next[env.From]++
	}
	for i := contractBurst; i < 2*contractBurst; i++ {
		read()
		read()
		for s := 0; s < contractSenders; s++ {
			if err := eps[s].Send(contractSenders, proto.Hello{From: graph.NodeID(s), Seq: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for got := 2 * contractBurst; got < contractSenders*2*contractBurst; got++ {
		read()
	}
}

// testSplit: diverted and kept messages, interleaved, land on their own
// channels in order within each — including those that arrived before
// the split was in place.
func testSplit(t *testing.T, tr contractTransport) {
	eps := tr.attach(t, contractSenders+1)
	rx := eps[contractSenders]
	divert := func(m proto.Message) bool { return m.(proto.Hello).Seq%3 == 0 }
	if !sendBursts(eps, 0, contractBurst)(5 * time.Second) {
		t.Fatal("a sender blocked before the split")
	}
	agent := rx.Split(divert)
	router := rx.Recv()
	second := sendBursts(eps, contractBurst, contractBurst)

	// due returns the first sequence number at or after seq that belongs
	// on the channel.
	due := func(seq uint64, diverted bool) uint64 {
		for (seq%3 == 0) != diverted {
			seq++
		}
		return seq
	}
	var nextAgent, nextRouter [contractSenders]uint64
	for s := range nextAgent {
		nextAgent[s], nextRouter[s] = due(0, true), due(0, false)
	}
	for got := 0; got < contractSenders*2*contractBurst; got++ {
		var env proto.Envelope
		var next *[contractSenders]uint64
		diverted := false
		select {
		case env = <-agent:
			next, diverted = &nextAgent, true
		case env = <-router:
			next = &nextRouter
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout after %d messages", got)
		}
		seq := env.Msg.(proto.Hello).Seq
		if seq != next[env.From] {
			t.Fatalf("diverted=%v: message %d from node %d arrived when %d was due", diverted, seq, env.From, next[env.From])
		}
		next[env.From] = due(seq+1, diverted)
	}
	if !second(5 * time.Second) {
		t.Fatal("senders did not finish")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a second Split was accepted after delivery began")
		}
	}()
	rx.Split(divert)
}

// testCloseWhileDraining: closing a receiver while senders still send
// and a backlog drains sends on no closed channel, closes the inbox, and
// leaves no sender blocked.
func testCloseWhileDraining(t *testing.T, tr contractTransport) {
	eps := tr.attach(t, contractSenders+1)
	rx := eps[contractSenders]
	in := rx.Recv()
	senders := sendBursts(eps, 0, contractBurst)

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		var next [contractSenders]uint64
		for env := range in {
			seq := env.Msg.(proto.Hello).Seq
			if seq != next[env.From] {
				t.Errorf("message %d from node %d arrived when %d was due", seq, env.From, next[env.From])
				return
			}
			next[env.From]++
			if next[env.From] == transport.InboxDepth {
				_ = rx.Close()
			}
		}
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not close")
	}
	if !senders(5 * time.Second) {
		t.Fatal("a sender blocked on a closed receiver")
	}
}

// testDrainerExits: the backlog goroutine runs while a backlog exists and
// is gone once it has been drained.
func testDrainerExits(t *testing.T, tr contractTransport) {
	eps := tr.attach(t, contractSenders+1)
	in := eps[contractSenders].Recv()
	if !sendBursts(eps, 0, contractBurst)(5 * time.Second) {
		t.Fatal("a sender blocked on a receiver that is not reading")
	}
	if goroutinesIn(tr.drainer) == 0 {
		t.Fatalf("no goroutine from %s while a backlog exists", tr.drainer)
	}
	for got := 0; got < contractSenders*contractBurst; got++ {
		recvFrom(t, in)
	}
	for deadline := time.Now().Add(5 * time.Second); goroutinesIn(tr.drainer) > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("a goroutine from %s is still running after its backlog drained", tr.drainer)
		}
		time.Sleep(time.Millisecond)
	}
}

// replyKey is the key the contract's reply rows await: that of a route
// reply with the given ID.
func replyKey(id uint64) proto.ReplyKey {
	k, _ := proto.ReplyKeyOf(proto.ConnCommandResult{Seq: id})
	return k
}

// expectNone fails if ch yields a message within a short wait.
func expectNone(t *testing.T, ch <-chan proto.Envelope, what string) {
	t.Helper()
	select {
	case env := <-ch:
		t.Fatalf("%s: got %s from node %d", what, env.Msg.Kind(), env.From)
	case <-time.After(20 * time.Millisecond):
	}
}

// testReplyPassesBacklog: with a burst ten inboxes deep queued for Recv, an
// awaited reply from another sender still reaches its waiter at once, and
// Recv then yields the whole burst, in order, without the reply.
func testReplyPassesBacklog(t *testing.T, tr contractTransport) {
	eps := tr.attach(t, contractSenders+2)
	rx, replier := eps[contractSenders], eps[contractSenders+1]
	in := rx.Recv()
	if !sendBursts(eps, 0, contractBurst)(5 * time.Second) {
		t.Fatal("a sender blocked on a receiver that is not reading")
	}
	waiter := make(chan proto.Envelope, 1)
	if err := rx.Await(replyKey(7), waiter); err != nil {
		t.Fatal(err)
	}
	if err := replier.Send(contractSenders, proto.ConnCommandResult{Seq: 7, OK: true}); err != nil {
		t.Fatal(err)
	}
	if env := recvFrom(t, waiter); env.Msg.(proto.ConnCommandResult).Seq != 7 || env.From != contractSenders+1 {
		t.Fatalf("waiter got %+v", env)
	}
	rx.Cancel(replyKey(7))
	var next [contractSenders]uint64
	for got := 0; got < contractSenders*contractBurst; got++ {
		env := recvFrom(t, in)
		hello, ok := env.Msg.(proto.Hello)
		if !ok {
			t.Fatalf("Recv yielded %s inside the burst", env.Msg.Kind())
		}
		if hello.Seq != next[env.From] {
			t.Fatalf("message %d from node %d arrived when %d was due", hello.Seq, env.From, next[env.From])
		}
		next[env.From]++
	}
	expectNone(t, in, "Recv after the burst")
}

// testUnawaitedReplyInOrder: a reply nobody awaits, and one whose wait was
// cancelled before it arrived, reach Recv in their sender's order, and the
// cancelled waiter gets nothing.
func testUnawaitedReplyInOrder(t *testing.T, tr contractTransport) {
	eps := tr.attach(t, 2)
	tx, rx := eps[0], eps[1]
	in := rx.Recv()
	waiter := make(chan proto.Envelope, 1)
	if err := rx.Await(replyKey(2), waiter); err != nil {
		t.Fatal(err)
	}
	rx.Cancel(replyKey(2))
	sent := []proto.Message{
		proto.Hello{Seq: 0}, proto.ConnCommandResult{Seq: 1}, proto.Hello{Seq: 1}, proto.ConnCommandResult{Seq: 2}, proto.Hello{Seq: 2},
	}
	for _, m := range sent {
		if err := tx.Send(1, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range sent {
		if got := recvFrom(t, in).Msg; !reflect.DeepEqual(got, want) {
			t.Fatalf("message %d on Recv is %+v, want %+v", i, got, want)
		}
	}
	expectNone(t, waiter, "cancelled waiter")
}

// testFullWaiterDrops: a second reply to a waiter that has not read the
// first is dropped without blocking its sender, and does not reach Recv.
func testFullWaiterDrops(t *testing.T, tr contractTransport) {
	eps := tr.attach(t, 2)
	tx, rx := eps[0], eps[1]
	in := rx.Recv()
	waiter := make(chan proto.Envelope, 1)
	if err := rx.Await(replyKey(3), waiter); err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() {
		for _, m := range []proto.Message{proto.ConnCommandResult{Seq: 3, Reason: "first"}, proto.ConnCommandResult{Seq: 3, Reason: "second"}, proto.Hello{Seq: 9}} {
			if err := tx.Send(1, m); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a reply to a full waiter blocked its sender")
	}
	// The Hello follows both replies from one sender: once it is on Recv,
	// both were delivered.
	if env := recvFrom(t, in); env.Msg != (proto.Hello{Seq: 9}) {
		t.Fatalf("Recv yielded %+v, want the closing Hello", env.Msg)
	}
	if env := recvFrom(t, waiter); env.Msg.(proto.ConnCommandResult).Reason != "first" {
		t.Fatalf("waiter got %+v, want the first reply", env.Msg)
	}
	expectNone(t, waiter, "waiter after the first reply")
	rx.Cancel(replyKey(3))
}

// testAwaitTwiceRefused: a key has one waiter at a time; Cancel frees it.
func testAwaitTwiceRefused(t *testing.T, tr contractTransport) {
	rx := tr.attach(t, 1)[0]
	rx.Recv()
	a, b := make(chan proto.Envelope, 1), make(chan proto.Envelope, 1)
	if err := rx.Await(replyKey(4), a); err != nil {
		t.Fatal(err)
	}
	if err := rx.Await(replyKey(4), b); !errors.Is(err, transport.ErrAwaited) {
		t.Fatalf("second Await of one key: err=%v, want ErrAwaited", err)
	}
	if err := rx.Await(replyKey(5), b); err != nil {
		t.Fatalf("Await of another key: %v", err)
	}
	rx.Cancel(replyKey(4))
	if err := rx.Await(replyKey(4), a); err != nil {
		t.Fatalf("Await after Cancel: %v", err)
	}
}

// testCloseWithWaiter: closing an endpoint that has a waiter registered
// leaves no goroutine behind, refuses later waits, and hands the old
// waiter nothing more.
func testCloseWithWaiter(t *testing.T, tr contractTransport) {
	before := runtime.NumGoroutine()
	eps := tr.attach(t, 2)
	tx, rx := eps[0], eps[1]
	in := rx.Recv()
	waiter := make(chan proto.Envelope, 1)
	if err := rx.Await(replyKey(6), waiter); err != nil {
		t.Fatal(err)
	}
	if err := tx.Send(1, proto.Hello{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	recvFrom(t, in)
	_ = rx.Close()
	_ = tx.Send(1, proto.ConnCommandResult{Seq: 6})
	_ = tx.Close()
	expectNone(t, waiter, "waiter of a closed endpoint")
	if err := rx.Await(replyKey(7), waiter); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Await on a closed endpoint: err=%v, want ErrClosed", err)
	}
	rx.Cancel(replyKey(6))
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the endpoints", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
