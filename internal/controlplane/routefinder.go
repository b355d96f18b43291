package controlplane

import (
	"fmt"
	"log/slog"
	"sync"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/router"
	"github.com/rtcl/drtp/internal/transport"
)

// RouteFinder is the control plane's route computation service. It owns
// a network-wide link-state snapshot, the routers' own view type fed by
// the adverts every router mirrors to it (router.Config.Mirrors), and
// answers proto.RouteQuery with a primary route plus backup routes
// selected as the routers select their own, excluding drained
// (unschedulable) and dead nodes.
type RouteFinder struct {
	cfg DeployConfig
	ep  transport.Endpoint
	log *slog.Logger

	mu sync.Mutex
	// view is the link-state snapshot; guarded by mu.
	view *router.LinkStateView
	// unsched marks draining nodes excluded from new routes; guarded by mu.
	unsched map[graph.NodeID]bool
	// down marks dead nodes; cleared when a node's own advert arrives
	// again (data-plane evidence of life); guarded by mu.
	down map[graph.NodeID]bool
	// closed is set once Close begins; guarded by mu.
	closed bool

	stop chan struct{}
	done chan struct{}
}

// NewRouteFinder attaches at RouteFinderID(cfg.Graph) and starts a
// route finder there. Its view starts optimistic (every link empty)
// until adverts arrive, exactly like a freshly started router.
func NewRouteFinder(cfg DeployConfig, at Attacher) (*RouteFinder, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	ep, err := at.Attach(RouteFinderID(cfg.Graph))
	if err != nil {
		return nil, fmt.Errorf("controlplane: attach route finder: %w", err)
	}
	rf := &RouteFinder{
		cfg:     cfg,
		ep:      ep,
		log:     cfg.Logger.With("service", "routefinder"),
		view:    router.NewLinkStateView(cfg.Graph, cfg.Capacity, cfg.UnitBW, cfg.Scheme),
		unsched: make(map[graph.NodeID]bool),
		down:    make(map[graph.NodeID]bool),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go rf.loop()
	return rf, nil
}

// Close stops the service and its endpoint.
func (rf *RouteFinder) Close() error {
	rf.mu.Lock()
	if rf.closed {
		rf.mu.Unlock()
		return nil
	}
	rf.closed = true
	rf.mu.Unlock()
	close(rf.stop)
	err := rf.ep.Close()
	<-rf.done
	return err
}

// Synced reports whether every topology node has mirrored at least one
// advert; the service's readiness probe gates on it.
func (rf *RouteFinder) Synced() bool {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	return rf.view.Heard() >= rf.cfg.Graph.NumNodes()
}

// Excluded reports whether a node is currently excluded from new routes
// (draining or believed dead). Intended for inspection in tests.
func (rf *RouteFinder) Excluded(n graph.NodeID) bool {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	return rf.unsched[n] || rf.down[n]
}

// loop is the service's single processing goroutine.
func (rf *RouteFinder) loop() {
	defer close(rf.done)
	for {
		select {
		case env, ok := <-rf.ep.Recv():
			if !ok {
				return
			}
			rf.dispatch(env)
		case <-rf.stop:
			return
		}
	}
}

func (rf *RouteFinder) dispatch(env proto.Envelope) {
	switch m := env.Msg.(type) {
	case proto.LSUpdate:
		rf.handleLSUpdate(m)
	case proto.RouteQuery:
		rf.handleRouteQuery(env.From, m)
	case proto.Unschedulable:
		rf.mu.Lock()
		if m.On {
			rf.unsched[m.Node] = true
		} else {
			delete(rf.unsched, m.Node)
		}
		rf.mu.Unlock()
		rf.log.Info("schedulability changed", "node", int(m.Node), "unschedulable", m.On)
	case proto.NodeDown:
		rf.mu.Lock()
		rf.down[m.Node] = true
		rf.mu.Unlock()
		rf.log.Info("node excluded", "node", int(m.Node), "reason", m.Reason)
	}
}

// handleLSUpdate installs a mirrored advert under the routers' intake
// rule, as seen from the finder's own address, which lies outside the
// topology and so owns no link. Mirrors receive only self-originated
// adverts (never re-floods), so a fresh advert is direct evidence the
// origin is alive again after a declared death.
func (rf *RouteFinder) handleLSUpdate(m proto.LSUpdate) {
	rf.mu.Lock()
	fresh, dropped := rf.view.Install(m, rf.ep.Node())
	revived := fresh && rf.down[m.Origin]
	if revived {
		delete(rf.down, m.Origin)
	}
	rf.mu.Unlock()
	rf.cfg.Telemetry.LSUpdateDropped(int(rf.ep.Node()), dropped)
	if revived {
		rf.log.Info("node revived by advert", "node", int(m.Origin))
	}
}

// handleRouteQuery computes routes and replies to the requester. The
// exclusion set is the union of the query's and the service's own
// (draining plus dead nodes).
func (rf *RouteFinder) handleRouteQuery(from graph.NodeID, m proto.RouteQuery) {
	excluded := make(map[graph.NodeID]bool)
	rf.mu.Lock()
	for n := range rf.unsched {
		excluded[n] = true
	}
	for n := range rf.down {
		excluded[n] = true
	}
	for _, n := range m.Exclude {
		excluded[n] = true
	}
	reply := proto.RouteReply{ID: m.ID}
	switch {
	case m.Src < 0 || int(m.Src) >= rf.cfg.Graph.NumNodes() ||
		m.Dst < 0 || int(m.Dst) >= rf.cfg.Graph.NumNodes() || m.Src == m.Dst:
		reply.Reason = "bad-endpoints"
	case excluded[m.Src] || excluded[m.Dst]:
		reply.Reason = "endpoint-excluded"
	default:
		primary, backups, reason := rf.routesLocked(m.Src, m.Dst, excluded)
		if reason != "" {
			reply.Reason = reason
		} else {
			reply.OK = true
			reply.Primary = primary
			reply.Backups = backups
		}
	}
	rf.mu.Unlock()
	_ = rf.ep.Send(from, reply)
}

// routesLocked answers one route query: a primary plus up to
// cfg.Backups backup routes, never crossing an excluded node. Callers
// must hold rf.mu.
func (rf *RouteFinder) routesLocked(src, dst graph.NodeID, excluded map[graph.NodeID]bool) (primary []graph.NodeID, backupRoutes [][]graph.NodeID, reason string) {
	g := rf.cfg.Graph
	blocked := func(l graph.LinkID) bool {
		lk := g.Link(l)
		return excluded[lk.From] || excluded[lk.To]
	}
	p := rf.view.RoutePrimary(src, dst, blocked)
	if p.Empty() {
		return nil, nil, "no-route"
	}
	chosen := rf.view.Backups(p, nil, rf.cfg.Backups, blocked)
	if len(chosen) == 0 {
		return nil, nil, "no-backup"
	}
	for _, b := range chosen {
		backupRoutes = append(backupRoutes, b.Nodes(g))
	}
	return p.Nodes(g), backupRoutes, ""
}
