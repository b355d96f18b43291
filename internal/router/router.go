// Package router is a distributed, message-passing implementation of the
// DRTP connection-management protocol from §2.2 of the paper. Each Router
// owns one network node: it reserves bandwidth on its outgoing links,
// maintains their APLV/Conflict-Vector state, floods link-state
// advertisements, exchanges hop-by-hop setup/teardown signalling (backup
// registrations carry the primary's LSET), detects neighbor failures via
// hello keep-alives, reports failures to connection sources, and switches
// affected connections to their backup channels.
//
// Control messages travel over a transport.Endpoint (in-memory switchboard
// or TCP); the transport models the signalling network and is assumed to
// deliver control traffic even when data-plane links fail, as link-state
// routers re-route control traffic around failures.
//
// Signalling is one engine (signal.go). Setup, backup register and activate
// are the same walk — visit the route's nodes, apply one effect per
// out-link, answer the source — so they share the originator's round trip
// (roundTrip: one sequence number, one reply pool, one retry/backoff loop)
// and the hop handler (handleHop: hop validation, teardown tombstone,
// dedup replay, reply or forward). Only the lsdb link operation, the reply
// message and the forwarded wire struct differ by kind. The reply table
// lives in the endpoint: a round trip awaits its reply's key
// (transport.Endpoint.Await), and the transport hands the reply to the
// waiting goroutine where it delivers it, without passing through the
// router loop. What a router sends itself and answers no request — a
// walk's hop 0, a teardown sweep starting here, a failure report about a
// connection it originated — is handled in place on the sending
// goroutine, with the same per-hop metrics, instead of a trip through its
// own inbox.
//
// The connection lifecycle — establish, switch, re-protect, release — is
// internal/lifecycle's, as in the simulator; the router supplies each
// channel operation as a signalling walk (channels). An establishment
// claims its ID (a nil record in conns) under the lock that checked for
// duplicates, so concurrent requests for one ID cannot share round trips.
//
// Routes a router originates are selected on its link-state view
// (lsview.go) by internal/lsr, the route selection the simulator runs.
// A router originates at most one triggered advert per hold-down
// (LSInterval/10): a change after a quiet period goes out at once, changes
// inside the window ride one advert sent when it closes (flushAdverts).
// A triggered advert travels the origin's shortest-path tree on the static
// topology, each router forwarding it only to the live neighbours it is
// the tree parent of (floodTargetsLocked), so it costs nodes − 1 sends:
// 11 on the 12-node ledger topology, against 25 when every advert was
// re-flooded over every adjacency. The periodic advert every LSInterval,
// and the first one, is a refresh (LSUpdate.Refresh) and still floods
// every adjacency. Remote views therefore trail an owner by at most
// hold-down + flood time, and a router below a failed tree edge or a
// lost copy by at most one LSInterval; a router's view of its own links
// never trails. Nothing on the recovery path reads a view before the
// switch: backups are pre-registered and failure reports go straight to
// the source.
package router

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"github.com/rtcl/drtp/internal/dedup"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lifecycle"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/rng"
	"github.com/rtcl/drtp/internal/telemetry"
	"github.com/rtcl/drtp/internal/transport"
)

// BackupScheme selects how a router computes backup routes from its
// link-state view.
type BackupScheme int

const (
	// DLSR routes backups with Conflict Vectors (deterministic).
	DLSR BackupScheme = iota + 1
	// PLSR routes backups with the scalar ‖APLV‖₁ (probabilistic).
	PLSR
)

// String returns the paper's name for the scheme.
func (s BackupScheme) String() string {
	switch s {
	case PLSR:
		return "P-LSR"
	case DLSR:
		return "D-LSR"
	default:
		return "unknown"
	}
}

// Config parameterizes a Router.
type Config struct {
	// Node is the router's node ID in Graph.
	Node graph.NodeID
	// Graph is the static topology shared by all routers.
	Graph *graph.Graph
	// Capacity and UnitBW mirror the simulator's bandwidth model.
	Capacity int
	UnitBW   int
	// Scheme selects D-LSR (default) or P-LSR backup routing.
	Scheme BackupScheme
	// Backups is the number of backup channels per connection (default
	// 1; the paper's "one or more"). Additional backups must be fully
	// disjoint from the primary and from each other; connections keep
	// whatever subset could be established (at least one).
	Backups int
	// HelloInterval is the keep-alive period (default 25ms).
	HelloInterval time.Duration
	// HelloMiss is the number of missed hellos before a neighbor's link
	// is declared failed (default 4).
	HelloMiss int
	// LSInterval is the period of the refresh, the link-state advert
	// flooded over every adjacency (default 100ms); adverts are also
	// triggered by local changes, at most one per LSInterval/10, and
	// follow the origin's shortest-path tree.
	LSInterval time.Duration
	// SetupTimeout bounds how long Establish and Release wait for
	// signalling round trips (default 5s).
	SetupTimeout time.Duration
	// RetryLimit is the total attempt budget for each signalling round
	// trip (setup, activate): a timed-out attempt is retransmitted with
	// jittered exponential backoff, all attempts sharing the SetupTimeout
	// budget, so the caller-visible deadline is unchanged (default 3;
	// 1 disables retries). Retransmissions reuse the attempt's sequence
	// number and are absorbed by per-hop dedup, giving at-least-once
	// delivery with idempotent processing.
	RetryLimit int
	// NbrRecovery, when true, lets hellos from a neighbor previously
	// declared failed revive the adjacency (crash-restart and
	// partition-heal support). Off by default: a failed link then stays
	// down, matching the paper's single-failure recovery model.
	NbrRecovery bool
	// Logger receives protocol events (establishments, failures, channel
	// switches) with the node ID attached. Nil discards them.
	Logger *slog.Logger
	// Telemetry receives typed protocol events (establishments,
	// rejections, link failures, channel switches, LS adverts). Nil (the
	// default) disables emission at negligible cost.
	Telemetry *telemetry.Tracer
	// Metrics, when non-nil, registers the router's metric families there:
	// an establishment-latency histogram and per-node connection gauges.
	// Share one registry across a cluster's routers.
	Metrics *telemetry.Registry
}

func (c *Config) setDefaults() {
	if c.Scheme == 0 {
		c.Scheme = DLSR
	}
	if c.HelloInterval == 0 {
		c.HelloInterval = 25 * time.Millisecond
	}
	if c.HelloMiss == 0 {
		c.HelloMiss = 4
	}
	if c.LSInterval == 0 {
		c.LSInterval = 100 * time.Millisecond
	}
	if c.SetupTimeout == 0 {
		c.SetupTimeout = 5 * time.Second
	}
	if c.RetryLimit == 0 {
		c.RetryLimit = 3
	}
	if c.Logger == nil {
		c.Logger = telemetry.DiscardLogger()
	}
	if c.Backups <= 0 {
		c.Backups = 1
	}
}

// ConnInfo is a snapshot of a connection originated at this router.
type ConnInfo struct {
	ID      lsdb.ConnID
	Src     graph.NodeID
	Dst     graph.NodeID
	Primary []graph.NodeID
	// Backup is the first (preferred) backup route; Backups lists all of
	// them in activation-preference order.
	Backup  []graph.NodeID
	Backups [][]graph.NodeID
	// Switched is true once the backup has been activated as the new
	// primary after a failure.
	Switched bool
	// Dead is true when no backup activated after a failure; the
	// connection then holds nothing.
	Dead bool
}

// conn is the router-internal connection record: the lifecycle record,
// the snapshot Conn serves, and the switch guard.
type conn struct {
	lifecycle.Conn
	info ConnInfo
	// switching is set while a goroutine moves the connection off reported
	// links (moveOff). It owns the lifecycle record meanwhile; everyone
	// else reads info.
	switching bool
	// reported queues the reports that arrive while switching is set, for
	// that goroutine to take in turn.
	reported []report
}

// publish refreshes the info snapshot from the lifecycle record. Callers
// must hold r.mu once c is in conns.
func (c *conn) publish(g *graph.Graph) {
	c.info.ID, c.info.Src, c.info.Dst = c.ID, c.Src, c.Dst
	c.info.Primary = c.Primary.Nodes(g)
	c.info.Backup, c.info.Backups = nil, nil
	for _, b := range c.Backups {
		c.info.Backups = append(c.info.Backups, b.Nodes(g))
	}
	if len(c.Backups) > 0 {
		c.info.Backup = c.info.Backups[0]
	}
}

// Signalling kinds.
const (
	sigSetup uint8 = iota + 1
	sigTeardown
	sigActivate
)

// sigID names one signalling exchange of a connection: which walk, on
// which channel (zero for activate). With sequence and hop it keys the
// per-hop dedup records.
type sigID struct {
	kind    uint8
	conn    lsdb.ConnID
	channel proto.ChannelKind
}

// Capacities of the dedup windows: each retains exactly its last this
// many distinct keys (see dedup.Window), which keeps memory constant on
// long runs. Retention is counted in messages, not time: maxSeenSig hops
// processed at this router, maxTombstones connections torn down through
// it.
const (
	maxSeenSig    = 8192
	maxTombstones = 4096
)

// dedupKey identifies one hop-level processing of one signalling message;
// a retransmission maps to the same key. The recorded sigResult lets a
// duplicate replay the same reply (or re-forward) without touching state
// again. It is a sigID flattened beside the sequence and hop, so the
// window's entry packs into 24 bytes: a hop is an index into a decoded
// route and a channel kind is Primary or Backup, so the narrow fields
// lose nothing a valid packet carries.
type dedupKey struct {
	conn    lsdb.ConnID
	seq     uint64
	hop     int32
	kind    uint8
	channel uint8
}

// key returns the dedup key of hop hop of this exchange under sequence
// seq.
func (id sigID) key(seq uint64, hop int) dedupKey {
	return dedupKey{conn: id.conn, seq: seq, hop: int32(hop), kind: id.kind, channel: uint8(id.channel)}
}

// hashDedupKey mixes a dedupKey's fields for the signalling window.
func hashDedupKey(seed uint64, k dedupKey) uint64 {
	h := dedup.Mix(seed, uint64(k.kind)|uint64(k.channel)<<8|uint64(uint32(k.hop))<<32)
	return dedup.Mix(dedup.Mix(h, uint64(k.conn)), k.seq)
}

// hashConnID mixes a connection ID for the tombstone window.
func hashConnID(seed uint64, id lsdb.ConnID) uint64 { return dedup.Mix(seed, uint64(id)) }

// Router is one DRTP node.
type Router struct {
	cfg Config
	ep  transport.Endpoint
	g   *graph.Graph
	// nbrs is the sorted neighbour list; the graph is static for a
	// router's lifetime.
	nbrs []graph.NodeID
	// tree is this router's share of every origin's shortest-path tree,
	// which triggered adverts follow.
	tree floodTree

	mu sync.Mutex
	db *lsdb.DB // reservations for this node's outgoing links; has its own lock
	// view is the advertised state of every link; guarded by mu.
	view *LinkStateView
	// mySeq numbers this router's own adverts; guarded by mu.
	mySeq uint64
	// dirty marks local link state changed since the last advert; guarded by mu.
	dirty bool
	// lastAdvert stamps the last advert, triggered or periodic; the
	// hold-down runs from it (flushAdverts); guarded by mu.
	lastAdvert time.Time
	// holdDown tells the loop to flush a pending advert (markDirtyLocked
	// arms it, flushAdverts runs when it fires); holdArmed is set while it
	// runs, so one timer is pending at most; guarded by mu.
	holdDown  *time.Timer
	holdArmed bool
	// sigSeq numbers signalling round trips originated here; guarded by mu.
	sigSeq uint64
	// seenSig dedups hop-level signalling processing (at-least-once
	// delivery, idempotent handling); bounded; guarded by mu.
	seenSig *dedup.Window[dedupKey, sigResult]
	// tombstones records, per connection, the highest teardown sequence
	// processed here, so stale setups and activates that a reordering
	// transport delivers after the teardown cannot resurrect reservations;
	// bounded; guarded by mu.
	tombstones *dedup.Window[lsdb.ConnID, uint64]
	// conns records connections originated here; a nil record is an ID
	// claimed by an establishment still signalling; guarded by mu.
	conns map[lsdb.ConnID]*conn
	// transit maps each outgoing link to the connections holding a primary
	// reservation or a backup registration on it and their source routers,
	// the ones to notify when it goes down; guarded by mu.
	transit map[graph.LinkID]map[lsdb.ConnID]graph.NodeID
	// lastHello stamps the latest keep-alive per neighbor; guarded by mu.
	lastHello map[graph.NodeID]time.Time
	// helloSeq numbers outgoing hellos; guarded by mu.
	helloSeq uint64
	// downNbr marks the neighbors whose link is down: false for a failed
	// link, true for one held down for the neighbor's drain, which hellos
	// never revive; guarded by mu.
	downNbr map[graph.NodeID]bool
	// closed is set once Close begins; guarded by mu.
	closed bool

	log        *slog.Logger
	tracer     *telemetry.Tracer
	schemeName string
	// life runs the connection lifecycle over this router's signalling.
	life lifecycle.Lifecycle
	// Cached metric instruments (nil when Config.Metrics is nil; every
	// method on them is nil-safe). Hop-signal children are resolved once
	// here so the dispatch path observes without any lookup or
	// allocation.
	mEstablishSeconds  *telemetry.LatencyHist
	mActiveConns       *telemetry.Gauge
	mDisruptionSeconds *telemetry.LatencyHist
	mHopPrimary        *telemetry.LatencyHist
	mHopBackup         *telemetry.LatencyHist
	mHopActivate       *telemetry.LatencyHist
	mHopTeardown       *telemetry.LatencyHist
	mAdvertsOriginated *telemetry.Counter
	mAdvertsCoalesced  *telemetry.Counter
	mAdvertsSent       *telemetry.Counter

	// retryJitter jitters retransmission backoff; guarded by retryMu
	// (drawn from Establish/switch goroutines, not the router loop).
	retryMu     sync.Mutex
	retryJitter splitmix

	stop chan struct{}
	done chan struct{}
	wg   sync.WaitGroup // helper goroutines (activation waits)
}

// New creates and starts a router attached to the given endpoint.
func New(cfg Config, ep transport.Endpoint) (*Router, error) {
	cfg.setDefaults()
	if cfg.Graph == nil {
		return nil, fmt.Errorf("router: nil graph")
	}
	if cfg.Node < 0 || int(cfg.Node) >= cfg.Graph.NumNodes() {
		return nil, fmt.Errorf("router: node %d out of range", cfg.Node)
	}
	db, err := lsdb.NewOwned(cfg.Graph, cfg.Capacity, cfg.UnitBW, cfg.Graph.Out(cfg.Node))
	if err != nil {
		return nil, err
	}
	nbrs := cfg.Graph.Neighbors(cfg.Node)
	r := &Router{
		cfg:        cfg,
		ep:         ep,
		g:          cfg.Graph,
		nbrs:       nbrs,
		tree:       newFloodTree(cfg.Graph, cfg.Node, nbrs),
		db:         db,
		view:       NewLinkStateView(cfg.Graph, cfg.Capacity, cfg.UnitBW, cfg.Scheme),
		holdDown:   time.NewTimer(time.Hour),
		seenSig:    dedup.NewWindow[dedupKey, sigResult](maxSeenSig, hashDedupKey),
		tombstones: dedup.NewWindow[lsdb.ConnID, uint64](maxTombstones, hashConnID),
		conns:      make(map[lsdb.ConnID]*conn),
		transit:    make(map[graph.LinkID]map[lsdb.ConnID]graph.NodeID),
		lastHello:  make(map[graph.NodeID]time.Time),
		downNbr:    make(map[graph.NodeID]bool),
		log:        cfg.Logger.With("node", int(cfg.Node)),
		tracer:     cfg.Telemetry,
		schemeName: cfg.Scheme.String(),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	// The hold-down timer starts stopped; markDirtyLocked arms it.
	r.holdDown.Stop()
	r.retryJitter = newRetryJitter(cfg.Node)
	r.life = lifecycle.Lifecycle{Channels: channels{r}, Tracer: r.tracer, Scheme: r.schemeName}
	if cfg.Metrics != nil {
		r.mEstablishSeconds = cfg.Metrics.Latency("drtp_router_establish_seconds",
			"Latency of successful DR-connection establishments.")
		r.mActiveConns = cfg.Metrics.GaugeVec("drtp_router_active_connections",
			"Connections originated at each node.", "node").
			With(fmt.Sprint(int(cfg.Node)))
		r.mDisruptionSeconds = cfg.Metrics.Latency("drtp_router_disruption_seconds",
			"Service disruption from failure report to backup activation.")
		hops := cfg.Metrics.LatencyVec("drtp_router_hop_signal_seconds",
			"Per-hop signalling processing time, by signalling role.", "role")
		r.mHopPrimary = hops.With("primary")
		r.mHopBackup = hops.With("backup")
		r.mHopActivate = hops.With("activate")
		r.mHopTeardown = hops.With("teardown")
		adverts := cfg.Metrics.CounterVec("drtp_router_ls_adverts_total",
			"Link-state adverts originated, dirty marks coalesced into a pending advert by the hold-down, and advert copies sent to neighbours, originated or forwarded.", "event")
		r.mAdvertsOriginated = adverts.With("originated")
		r.mAdvertsCoalesced = adverts.With("coalesced")
		r.mAdvertsSent = adverts.With("sent")
	}
	now := time.Now()
	for _, nbr := range r.nbrs {
		r.lastHello[nbr] = now
	}
	go r.loop()
	return r, nil
}

// Node returns the router's node ID.
func (r *Router) Node() graph.NodeID { return r.cfg.Node }

// Close stops the router and its endpoint.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	close(r.stop)
	err := r.ep.Close()
	<-r.done
	r.wg.Wait()
	return err
}

// Conn returns a snapshot of an originated connection.
func (r *Router) Conn(id lsdb.ConnID) (ConnInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.conns[id]
	if c == nil {
		return ConnInfo{}, false
	}
	return c.info, true
}

// DB exposes the router's local reservation state (outgoing links only);
// intended for inspection in tests and tools.
func (r *Router) DB() *lsdb.DB { return r.db }

// Footprint is the memory a router holds by structure, in bytes: its link
// database, its link-state view and the route searches' scratch space on
// it, its share of the flood trees and the two dedup windows its
// signalling remembers hops and teardowns in.
type Footprint struct {
	DB         lsdb.Footprint
	View       int64
	Search     int64
	FloodTree  int64
	SeenSig    int64
	Tombstones int64
}

// Total returns the bytes of every structure.
func (f Footprint) Total() int64 {
	return f.DB.Total() + f.View + f.Search + f.FloodTree + f.SeenSig + f.Tombstones
}

// Footprint returns the bytes the router holds, by structure.
func (r *Router) Footprint() Footprint {
	f := Footprint{DB: r.db.Footprint(), FloodTree: r.tree.bytes()}
	r.mu.Lock()
	defer r.mu.Unlock()
	f.View = r.view.bytes()
	f.Search = r.view.sel.Scratch.Bytes()
	f.SeenSig = r.seenSig.Bytes()
	f.Tombstones = r.tombstones.Bytes()
	return f
}

// Synced reports whether this router has installed at least one remote
// link-state advertisement (trivially true on single-node topologies).
// The node runtime's readiness probe gates on it so a freshly started
// process does not accept work against an empty view.
func (r *Router) Synced() bool {
	if r.g.NumNodes() == 1 {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.view.Heard() > 0
}

// View reports this router's link-state view of one link: the bandwidth
// available to primaries, the bandwidth available to backups, and the
// advertised ‖APLV‖₁. Intended for inspection in tests and tools.
func (r *Router) View(l graph.LinkID) (availPrim, availBackup, norm int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.view.Link(l)
}

// loop is the router's processing goroutine: inbound messages, hello
// keep-alives and link-state flushes.
func (r *Router) loop() {
	defer close(r.done)
	defer r.holdDown.Stop()
	hello := time.NewTicker(r.cfg.HelloInterval)
	defer hello.Stop()
	ls := time.NewTicker(r.cfg.LSInterval)
	defer ls.Stop()

	r.sendHellos()
	r.advertise(true)
	for {
		select {
		case env, ok := <-r.ep.Recv():
			if !ok {
				return
			}
			r.dispatch(env)
		case <-hello.C:
			r.sendHellos()
			r.checkNeighbors(time.Now())
		case <-r.holdDown.C:
			r.flushAdverts()
		case <-ls.C:
			r.advertise(true)
		case <-r.stop:
			return
		}
	}
}

// dispatch handles one message, on the loop or, for a message this router
// sent itself, in place. A reply reaches it only when no round trip
// awaited it: a straggler of a superseded or finished attempt.
func (r *Router) dispatch(env proto.Envelope) {
	switch m := env.Msg.(type) {
	case proto.Hello:
		r.handleHello(env.From)
	case proto.LSUpdate:
		r.handleLSUpdate(env.From, m)
	case proto.Setup:
		// Per-hop signalling time: how long this router took to process one
		// hop — the quantity that bounds signalling throughput.
		start := r.hopStart()
		r.handleHop(signal{
			sigID: sigID{kind: sigSetup, conn: m.Conn, channel: m.Channel},
			route: m.Route, hop: m.Hop, lset: m.PrimaryLSET, trace: m.Trace, seq: m.Seq,
		})
		if m.Channel == proto.Primary {
			r.mHopPrimary.ObserveSince(start)
		} else {
			r.mHopBackup.ObserveSince(start)
		}
	case proto.SetupResult:
		r.tracer.DedupHit(0, int64(m.Conn), int(r.cfg.Node), sigLabels[sigSetup].staleResult)
	case proto.Teardown:
		start := r.hopStart()
		r.handleTeardown(m)
		r.mHopTeardown.ObserveSince(start)
	case proto.FailureReport:
		r.handleFailureReport(m)
	case proto.Activate:
		start := r.hopStart()
		r.handleHop(signal{
			sigID: sigID{kind: sigActivate, conn: m.Conn},
			route: m.Route, hop: m.Hop, trace: m.Trace, seq: m.Seq,
		})
		r.mHopActivate.ObserveSince(start)
	case proto.ActivateResult:
		r.tracer.DedupHit(0, int64(m.Conn), int(r.cfg.Node), sigLabels[sigActivate].staleResult)
	}
}

// hopStart starts a per-hop signalling clock, reading the wall clock only
// when the hop histograms exist.
func (r *Router) hopStart() time.Time {
	if r.mHopPrimary == nil {
		return time.Time{}
	}
	return time.Now()
}

// send transmits best-effort; signalling losses surface as timeouts. A
// message to this router itself that answers no request is dispatched in
// place, on the calling goroutine; a reply to itself goes through the
// endpoint, whose waiter table hands it to the round trip awaiting it.
func (r *Router) send(to graph.NodeID, msg proto.Message) {
	if to == r.cfg.Node {
		if _, reply := proto.ReplyKeyOf(msg); !reply {
			r.dispatch(proto.Envelope{From: to, To: to, Msg: msg})
			return
		}
	}
	_ = r.ep.Send(to, msg)
}

// nextSeqLocked issues the next signalling sequence number. Sequence
// numbers are router-global and monotonic, so a connection's teardown
// always outranks its setup and any later reuse of the connection ID
// starts above existing tombstones.
func (r *Router) nextSeqLocked() uint64 {
	r.sigSeq++
	return r.sigSeq
}

// recordTombstoneLocked raises the connection's teardown high-water mark.
func (r *Router) recordTombstoneLocked(id lsdb.ConnID, seq uint64) {
	if old, ok := r.tombstones.Get(id); !ok || seq > old {
		r.tombstones.Put(id, seq)
	}
}

// entombedLocked reports whether a message with the given sequence is
// stale relative to the connection's processed teardowns.
func (r *Router) entombedLocked(id lsdb.ConnID, seq uint64) bool {
	ts, ok := r.tombstones.Get(id)
	return ok && seq <= ts
}

// attemptTimeout returns how long attempt (0-based, of attempts total)
// waits for a reply: the SetupTimeout budget is split across attempts in
// 1:2:4:... proportion with ±20% jitter, clamped to the remaining budget;
// the final attempt absorbs whatever remains so the caller-visible
// deadline stays at SetupTimeout.
func (r *Router) attemptTimeout(attempt, attempts int, remaining time.Duration) time.Duration {
	if remaining <= 0 {
		return 0
	}
	if attempt >= attempts-1 {
		return remaining
	}
	share := float64(r.cfg.SetupTimeout) *
		float64(uint64(1)<<attempt) / float64(uint64(1)<<attempts-1)
	r.retryMu.Lock()
	jitter := 0.8 + 0.4*r.retryJitter.float64()
	r.retryMu.Unlock()
	d := time.Duration(share * jitter)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > remaining {
		d = remaining
	}
	return d
}

// splitmix is a splitmix64 stream: 8 bytes of state, where a math/rand
// source holds 4.9 KB, for one draw per retransmission.
type splitmix uint64

// newRetryJitter seeds node's jitter stream from its own split of the
// zero seed: Split(label) is a pure function of the label, so each router
// draws its own stream, the same on every run.
func newRetryJitter(node graph.NodeID) splitmix {
	return splitmix(rng.New(0).Split(fmt.Sprintf("retry/%d", int(node))).Int63())
}

// float64 draws the next value in [0, 1).
func (s *splitmix) float64() float64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
