package router_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/router"
	"github.com/rtcl/drtp/internal/telemetry"
	"github.com/rtcl/drtp/internal/transport"
)

// The hold-down tests stretch LSInterval so that the window is long
// against in-memory signalling (a burst fits inside it) and no periodic
// advert or hello tick falls inside a test to do the hold-down's work.
const (
	holdLSInterval = 3 * time.Second
	holdDown       = holdLSInterval / router.HoldDownsPerLSInterval
	// floodSlack is what one in-memory flood may take on a loaded machine.
	floodSlack = 500 * time.Millisecond
)

// advertTap watches every link-state advert a router originates as the
// router sends it, through the attacher the cluster runs on: it counts
// each (origin, seq) once per origin, refreshes apart, and assembles a
// LinkStateView from them, a view of the whole network that no flood
// loss can make trail.
type advertTap struct {
	transport.Attacher
	mu         sync.Mutex
	seen       map[originSeq]bool
	originated map[graph.NodeID]int
	refreshes  map[graph.NodeID]int
	view       *router.LinkStateView
}

// originSeq names one advert.
type originSeq struct {
	origin graph.NodeID
	seq    uint64
}

// Attach implements transport.Attacher.
func (m *advertTap) Attach(n graph.NodeID) (transport.Endpoint, error) {
	ep, err := m.Attacher.Attach(n)
	if err != nil {
		return nil, err
	}
	return tapEndpoint{ep, m}, nil
}

// tapEndpoint reports the adverts its router originates to the tap.
type tapEndpoint struct {
	transport.Endpoint
	tap *advertTap
}

// Send implements transport.Endpoint.
func (e tapEndpoint) Send(to graph.NodeID, msg proto.Message) error {
	if u, ok := msg.(proto.LSUpdate); ok && u.Origin == e.Node() {
		e.tap.record(u)
	}
	return e.Endpoint.Send(to, msg)
}

// record takes in one sent copy of an originated advert.
func (m *advertTap) record(u proto.LSUpdate) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := originSeq{u.Origin, u.Seq}
	if m.seen[k] {
		return
	}
	m.seen[k] = true
	m.originated[u.Origin]++
	if u.Refresh {
		m.refreshes[u.Origin]++
	}
	m.view.Install(u, graph.InvalidNode)
}

func (m *advertTap) count(n graph.NodeID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.originated[n]
}

// totals sums the adverts seen from every origin: triggered and refresh.
func (m *advertTap) totals() (triggered, refresh int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for n, k := range m.originated {
		triggered += k - m.refreshes[n]
		refresh += m.refreshes[n]
	}
	return triggered, refresh
}

// newHoldDownCluster starts a cluster on g with the stretched timers, one
// metrics registry and a tap on every router's adverts. The routers
// attach through the tap, wrapped around inject's wrapper around the
// switchboard (nil: the switchboard itself).
func newHoldDownCluster(t *testing.T, g *graph.Graph, inject func(*transport.Mem) transport.Attacher) (*router.Cluster, *advertTap, *telemetry.Registry) {
	t.Helper()
	const capacity = 100
	mem := transport.NewMem()
	var at transport.Attacher = mem
	if inject != nil {
		at = inject(mem)
	}
	m := &advertTap{
		Attacher:   at,
		seen:       make(map[originSeq]bool),
		originated: make(map[graph.NodeID]int),
		refreshes:  make(map[graph.NodeID]int),
		view:       router.NewLinkStateView(g, capacity, 1, router.DLSR),
	}
	reg := telemetry.NewRegistry()
	c, err := router.NewCluster(router.Config{
		Graph:    g,
		Capacity: capacity,
		UnitBW:   1,
		// No hello tick, so no failure detector, inside a test.
		HelloInterval: time.Minute,
		LSInterval:    holdLSInterval,
		SetupTimeout:  3 * time.Second,
		Metrics:       reg,
	}, m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		_ = mem.Close()
	})
	return c, m, reg
}

// until polls cond until it holds or the deadline passes.
func until(deadline time.Time, cond func() bool) bool {
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// quiet lets the hold-down of every router's last advert run out.
func quiet() { time.Sleep(holdDown + holdDown/5) }

// viewLag names the first link on which some router's view, or the
// tap's, differs from the owner's database; empty when all agree.
func viewLag(g *graph.Graph, c *router.Cluster, m *advertTap) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < g.NumLinks(); i++ {
		l := graph.LinkID(i)
		db := c.Router(g.Link(l).From).DB()
		prim, backup, norm, cv := db.FreeBW(l), db.AvailableForBackup(l), db.APLVNorm(l), db.AppendCV(l, nil)
		for n := 0; n <= c.Size(); n++ {
			who := fmt.Sprintf("router %d", n)
			var p, b, nm int
			var v []byte
			if n == c.Size() {
				who = "tap"
				p, b, nm = m.view.Link(l)
				v = m.view.CV(l)
			} else {
				p, b, nm = c.Router(graph.NodeID(n)).View(l)
				v = c.Router(graph.NodeID(n)).ViewCV(l)
			}
			if p != prim || b != backup || nm != norm || !bytes.Equal(v, cv) {
				return fmt.Sprintf("%s sees link %d as (%d %d %d %x), owner has (%d %d %d %x)",
					who, l, p, b, nm, v, prim, backup, norm, cv)
			}
		}
	}
	return ""
}

// TestHoldDownBoundsAdvertsAndConverges: a burst of establishments and
// releases costs each router a number of adverts bounded by the elapsed
// time, not by the number of requests, and the window's closing advert
// carries the final state everywhere. With the other TestHoldDown tests
// it pins the origination rule (DESIGN.md, link-state adverts).
func TestHoldDownBoundsAdvertsAndConverges(t *testing.T) {
	g := theta(t)
	c, m, _ := newHoldDownCluster(t, g, nil)
	src := c.Router(0)
	quiet()
	before := make([]int, c.Size())
	for n := range before {
		before[n] = m.count(graph.NodeID(n))
	}

	start := time.Now()
	const pairs, kept = 60, 3
	for i := 0; i < pairs+kept; i++ {
		id, dst := lsdb.ConnID(i+1), graph.NodeID(1+i%4)
		if _, err := src.Establish(id, dst); err != nil {
			t.Fatalf("establish %d -> %d: %v", id, dst, err)
		}
		if i < pairs {
			if err := src.Release(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if burst := time.Since(start); burst > holdLSInterval/2 {
		t.Skipf("burst took %v: a periodic advert may have done the trailing edge's work", burst)
	}

	// The last changes fell inside the hold-down of earlier adverts; only
	// the trailing edge can bring them to the other routers in time.
	var lag string
	if !until(time.Now().Add(holdDown+floodSlack), func() bool { lag = viewLag(g, c, m); return lag == "" }) {
		t.Fatalf("views not current %v after the burst: %s", holdDown+floodSlack, lag)
	}
	limit := int((time.Since(start)+holdDown-1)/holdDown) + 2
	for n, b := range before {
		if got := m.count(graph.NodeID(n)) - b; got > limit {
			t.Errorf("router %d originated %d adverts in %v, limit %d", n, got, time.Since(start), limit)
		}
	}
}

// TestHoldDownLeadingEdgeIsImmediate: after a quiet period one reservation
// reaches a neighbour's view without waiting out a hold-down.
func TestHoldDownLeadingEdgeIsImmediate(t *testing.T) {
	g := theta(t)
	c, _, _ := newHoldDownCluster(t, g, nil)
	quiet()
	l01, _ := g.LinkBetween(0, 1)
	start := time.Now()
	if _, err := c.Router(0).Establish(1, 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "router 1 sees the reservation on 0->1", func() bool {
		prim, _, _ := c.Router(1).View(l01)
		return prim == 99
	})
	if took := time.Since(start); took >= holdDown {
		t.Fatalf("an isolated change took %v to reach a neighbour, hold-down is %v", took, holdDown)
	}
}

// TestHoldDownTrailingEdgeFromInPlaceHop: two one-hop establishments 0->1
// inside one hold-down. Router 0 reserves link 0->1 at hop 0 of each
// primary, which it handles in place on the establishing goroutine, and
// router 1, the last hop, changes nothing; so the second reservation
// reaches router 1's view only if that in-place hop armed the
// trailing-edge advert.
func TestHoldDownTrailingEdgeFromInPlaceHop(t *testing.T) {
	g := theta(t)
	c, _, _ := newHoldDownCluster(t, g, nil)
	l01, _ := g.LinkBetween(0, 1)
	quiet()
	start := time.Now()
	for id := lsdb.ConnID(1); id <= 2; id++ {
		if _, err := c.Router(0).Establish(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took >= holdDown {
		t.Skipf("the establishments took %v, longer than a hold-down", took)
	}
	if !until(start.Add(holdDown+floodSlack), func() bool {
		prim, _, _ := c.Router(1).View(l01)
		return prim == 98
	}) {
		prim, _, _ := c.Router(1).View(l01)
		t.Fatalf("router 1 sees %d free on 0->1 %v after the second reservation, want 98", prim, holdDown+floodSlack)
	}
}

// TestHoldDownDefersFloodNotLocalTruth: inside the hold-down the source's
// view of its own out-links follows every establishment at once, and a link
// failure is flooded by the window's closing advert.
func TestHoldDownDefersFloodNotLocalTruth(t *testing.T) {
	g := theta(t)
	c, _, _ := newHoldDownCluster(t, g, nil)
	src := c.Router(0)
	l03, _ := g.LinkBetween(0, 3)
	quiet()
	var failedAt time.Time
	for i := 0; i < 20; i++ {
		id := lsdb.ConnID(i + 1)
		if _, err := src.Establish(id, 1); err != nil {
			t.Fatal(err)
		}
		for _, l := range g.Out(0) {
			db := src.DB()
			wantPrim, wantBackup, wantNorm, wantCV := db.FreeBW(l), db.AvailableForBackup(l), db.APLVNorm(l), db.AppendCV(l, nil)
			if l == l03 && !failedAt.IsZero() {
				// A dead link is advertised, and seen, as empty.
				wantPrim, wantBackup, wantNorm, wantCV = 0, 0, 0, make([]byte, len(wantCV))
			}
			if prim, backup, norm := src.View(l); prim != wantPrim || backup != wantBackup ||
				norm != wantNorm || !bytes.Equal(src.ViewCV(l), wantCV) {
				t.Fatalf("after establishment %d the source sees its link %d as (%d %d %d %x), it is (%d %d %d %x)",
					id, l, prim, backup, norm, src.ViewCV(l), wantPrim, wantBackup, wantNorm, wantCV)
			}
		}
		if i == 10 {
			// One more change inside the window.
			src.FailLink(3)
			failedAt = time.Now()
		}
	}
	if !until(failedAt.Add(holdDown+floodSlack), func() bool {
		prim, backup, _ := c.Router(4).View(l03)
		return prim == 0 && backup == 0
	}) {
		t.Fatalf("failed link still advertised with bandwidth %v after the failure", holdDown+floodSlack)
	}
}
