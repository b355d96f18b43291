package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/proto"
)

// The reconnect budget: a Send whose established connection breaks
// mid-stream (peer crashed or restarting) redials up to defaultRedials
// more times with doubling backoff before reporting the error. The
// budget is kept small because Send runs on the router's processing
// loop; losses past it are covered by the signalling retry layer above.
const (
	defaultRedials        = 2
	defaultRedialsBackoff = 5 * time.Millisecond
)

// TCPMesh connects routers over TCP. Each endpoint listens on its own
// address; outbound connections are dialed lazily and cached. Messages
// are length-prefixed Envelopes in the proto wire format. A broken
// outbound connection (peer restart) is dropped and redialed inside the
// failing Send, bounded by the reconnect budget (see defaultRedials).
type TCPMesh struct {
	mu     sync.Mutex
	addrs  map[graph.NodeID]string
	closed bool
}

// NewTCPMesh creates a mesh with a static node-to-address directory.
func NewTCPMesh(addrs map[graph.NodeID]string) *TCPMesh {
	copied := make(map[graph.NodeID]string, len(addrs))
	for n, a := range addrs {
		copied[n] = a
	}
	return &TCPMesh{addrs: copied}
}

// Attach starts listening on the node's directory address and returns its
// endpoint.
func (m *TCPMesh) Attach(node graph.NodeID) (Endpoint, error) {
	m.mu.Lock()
	addr, ok := m.addrs[node]
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if !ok {
		return nil, fmt.Errorf("transport: node %d not in directory: %w", node, ErrUnknownPeer)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	ep := &tcpEndpoint{
		mesh:    m,
		node:    node,
		ln:      ln,
		in:      inbox{recv: make(chan proto.Envelope, inboxDepth)},
		ready:   make(chan struct{}),
		done:    make(chan struct{}),
		conns:   make(map[graph.NodeID]*tcpConn),
		inbound: make(map[net.Conn]struct{}),
	}
	// Record the actual address (supports ":0" ephemeral ports).
	m.mu.Lock()
	m.addrs[node] = ln.Addr().String()
	m.mu.Unlock()
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// Addr returns the directory address of a node (after Attach it reflects
// the bound address, including ephemeral ports).
func (m *TCPMesh) Addr(node graph.NodeID) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.addrs[node]
	return a, ok
}

// Close marks the mesh closed; endpoints must be closed individually.
func (m *TCPMesh) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

type tcpConn struct {
	mu   sync.Mutex
	conn net.Conn
	w    *bufio.Writer
}

type tcpEndpoint struct {
	mesh *TCPMesh
	node graph.NodeID
	ln   net.Listener
	in   inbox
	// ready closes when the inbox opens; connection readers deliver
	// nothing before.
	ready chan struct{}
	done  chan struct{}
	wg    sync.WaitGroup

	mu      sync.Mutex
	conns   map[graph.NodeID]*tcpConn
	inbound map[net.Conn]struct{}
	closed  bool
}

var _ Endpoint = (*tcpEndpoint)(nil)

// Node implements Endpoint.
func (e *tcpEndpoint) Node() graph.NodeID { return e.node }

// Clock implements Endpoint: a TCP mesh runs on the wall clock.
func (e *tcpEndpoint) Clock() Clock { return Wall }

// Send implements Endpoint. A write failure on an established cached
// connection is evidence of a peer restart: the broken connection is
// dropped and the address redialed with bounded backoff, so a peer that
// comes back on its directory address is transparently reconnected.
// Fresh dial failures are NOT retried — a dead peer must fail fast,
// because Send runs on the router's processing loop and sleeping there
// starves live traffic (recovery signalling above all).
func (e *tcpEndpoint) Send(to graph.NodeID, msg proto.Message) error {
	err, broke := e.sendOnce(to, msg)
	if err == nil || !broke || errors.Is(err, ErrClosed) || errors.Is(err, ErrUnknownPeer) {
		return err
	}
	lastErr := err
	for attempt := 1; attempt <= defaultRedials; attempt++ {
		<-e.Clock().NewTimer(defaultRedialsBackoff << (attempt - 1)).C()
		err, _ := e.sendOnce(to, msg)
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrClosed) || errors.Is(err, ErrUnknownPeer) {
			return err
		}
		lastErr = err
	}
	return lastErr
}

// sendOnce performs one dial-if-needed-and-write attempt. broke reports
// that an established cached connection failed mid-stream (as opposed
// to a fresh dial failing), the signal Send's reconnect path keys on.
func (e *tcpEndpoint) sendOnce(to graph.NodeID, msg proto.Message) (err error, broke bool) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed, false
	}
	c := e.conns[to]
	e.mu.Unlock()

	if c == nil {
		addr, ok := e.mesh.Addr(to)
		if !ok {
			return ErrUnknownPeer, false
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return fmt.Errorf("transport: dial node %d: %w", to, err), false
		}
		c = &tcpConn{conn: conn, w: bufio.NewWriter(conn)}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			_ = conn.Close()
			return ErrClosed, false
		}
		if existing := e.conns[to]; existing != nil {
			// Lost the race; use the cached connection.
			e.mu.Unlock()
			_ = conn.Close()
			c = existing
		} else {
			e.conns[to] = c
			e.mu.Unlock()
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	env := proto.Envelope{From: e.node, To: to, Msg: msg}
	werr := proto.WriteFrame(c.w, env)
	if werr == nil {
		werr = c.w.Flush()
	}
	if werr != nil {
		// Drop the broken connection; the next attempt redials.
		e.mu.Lock()
		if e.conns[to] == c {
			delete(e.conns, to)
		}
		e.mu.Unlock()
		_ = c.conn.Close()
		return fmt.Errorf("transport: send to node %d: %w", to, werr), true
	}
	return nil, false
}

// Recv implements Endpoint.
func (e *tcpEndpoint) Recv() <-chan proto.Envelope {
	if !e.in.opened.Load() {
		e.in.open(nil, e.startDelivery)
	}
	return e.in.recv
}

// Split implements Endpoint.
func (e *tcpEndpoint) Split(divert func(proto.Message) bool) <-chan proto.Envelope {
	return e.in.split(divert, e.startDelivery)
}

// Await implements Endpoint.
func (e *tcpEndpoint) Await(k proto.ReplyKey, ch chan<- proto.Envelope) error {
	return e.in.await(k, ch)
}

// Cancel implements Endpoint.
func (e *tcpEndpoint) Cancel(k proto.ReplyKey) { e.in.cancel(k) }

// startDelivery releases the connection readers.
func (e *tcpEndpoint) startDelivery() { close(e.ready) }

// Close implements Endpoint.
func (e *tcpEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := make([]net.Conn, 0, len(e.conns)+len(e.inbound))
	for _, c := range e.conns {
		conns = append(conns, c.conn)
	}
	for c := range e.inbound {
		conns = append(conns, c)
	}
	e.conns = make(map[graph.NodeID]*tcpConn)
	e.mu.Unlock()

	close(e.done)
	err := e.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	e.wg.Wait()
	e.in.close()
	return err
}

func (e *tcpEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			_ = conn.Close()
			continue
		}
		e.inbound[conn] = struct{}{}
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

// readLoop decodes one inbound connection's frames and delivers each, in
// order, to its waiter if it is an awaited reply, else onto the inbox
// channel the split picks for it.
func (e *tcpEndpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer func() {
		e.mu.Lock()
		delete(e.inbound, conn)
		e.mu.Unlock()
		_ = conn.Close()
	}()
	select {
	case <-e.ready:
	case <-e.done:
		return
	}
	r := bufio.NewReader(conn)
	for {
		env, err := proto.ReadFrame(r)
		if err != nil {
			return
		}
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
