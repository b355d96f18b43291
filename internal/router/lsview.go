package router

import (
	"math"
	"math/bits"
	"slices"
	"time"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsr"
	"github.com/rtcl/drtp/internal/proto"
)

// LinkStateView is one node's picture of every link in the network,
// assembled from link-state adverts, and the state source a router
// selects the routes it originates from, the control plane's included.
// Selection itself is internal/lsr's — the same primary rule, backup cost
// and k-backup rule the simulator runs — reading the advertised
// bandwidths directly and, as the conflict metric, the advertised ‖APLV‖₁
// (P-LSR) or the primary's links set in each Conflict Vector (D-LSR).
// The view keeps each link's Conflict Vector as its set bits, one
// ascending row of link IDs per link in one arena (cvRows), so it grows
// with the conflicts advertised rather than with links²: 0.75 MB in all
// for a view of a 2 000-node (6 000-link) simulation at steady state,
// against 4.5 MB for links² bits. Per link a fresh view holds two int32
// bandwidths and an int32 norm, the float64 metric, a 4-byte row offset
// and two bits, the down and LSET marks: 24.25 bytes, and the origins'
// sequences beside them. Not goroutine-safe; the owner serializes access.
type LinkStateView struct {
	scheme BackupScheme
	// sel holds the advertised bandwidths (Free is the bandwidth available
	// to primaries) and the per-request block list and conflict metric.
	sel  lsr.Selector
	norm []int32
	// rows holds, for each link l, the links j whose bit is set in link
	// l's advertised Conflict Vector, ascending.
	rows cvRows
	// inLSET marks the request's primary links while fillMetric counts;
	// empty between calls.
	inLSET graph.LinkSet
	// seq[o] is the sequence of the last update installed from origin o,
	// zero if none has been; heard counts the origins with one.
	seq   []uint64
	heard int
}

// NewLinkStateView starts from the optimistic initial view: every link
// empty until adverts arrive. The capacity must fit 32 bits, as the link
// database's does.
func NewLinkStateView(g *graph.Graph, capacity, unitBW int, scheme BackupScheme) *LinkStateView {
	n := g.NumLinks()
	// The four int32 arrays share one allocation, and so do the two sets.
	words, sets := make([]int32, 4*n), make(graph.LinkSet, 2*len(graph.NewLinkSet(n)))
	part := func(k int) []int32 { return words[k*n : (k+1)*n : (k+1)*n] }
	half := len(sets) / 2
	v := &LinkStateView{
		scheme: scheme,
		sel: lsr.Selector{
			G: g, Unit: unitBW,
			Free: part(0), AvailBackup: part(1),
			Down: sets[:half:half], Metric: make([]float64, n),
		},
		norm:   part(2),
		rows:   cvRows{at: part(3)},
		inLSET: sets[half:],
		seq:    make([]uint64, g.NumNodes()),
	}
	for l := range n {
		v.sel.Free[l] = int32(capacity)
		v.sel.AvailBackup[l] = int32(capacity)
	}
	return v
}

// bytes returns the memory the view holds: its per-link arrays and sets,
// the conflict arena and the origins' sequences.
func (v *LinkStateView) bytes() int64 {
	return 4*int64(cap(v.sel.Free)+cap(v.sel.AvailBackup)+cap(v.norm)+cap(v.rows.at)+cap(v.rows.arena)) +
		8*int64(cap(v.sel.Metric)+cap(v.sel.Down)+cap(v.inLSET)+cap(v.seq))
}

// cvRows holds every link's Conflict Vector row in one arena. A row lives
// in a slot: a rowHeader-word header (the link, the slot's capacity, the
// row's length) and then the row's entries. at[l] is the arena index of
// link l's first entry, or 0 while l has no slot: every slot's entries
// follow its header, so none starts at 0. A row rewritten at a length its
// slot holds stays in place, so a steady-state advert allocates nothing;
// one that outgrows its slot moves to a new slot, with a quarter's slack,
// at the arena's end, and the old slot dies (its header's link -1). Once
// dead slots hold more than half the arena, the live slots slide down over
// them in arena order, each cut to its row.
type cvRows struct {
	at    []int32
	arena []int32
	dead  int // words in dead slots
}

const rowHeader = 3

// row returns link l's row.
func (c *cvRows) row(l int) []int32 {
	a := c.at[l]
	if a == 0 {
		return nil
	}
	return c.arena[a : a+c.arena[a-1]]
}

// slot returns link l's slot, empty, with room for n entries, to be
// appended to and then sized with setLen.
func (c *cvRows) slot(l, n int) []int32 {
	a := int(c.at[l])
	if a != 0 && int(c.arena[a-2]) >= n {
		return c.arena[a : a : a+int(c.arena[a-2])]
	}
	if a != 0 {
		c.arena[a-rowHeader] = -1
		c.dead += rowHeader + int(c.arena[a-2])
		c.at[l] = 0
	}
	if n == 0 {
		return nil
	}
	if 2*c.dead > len(c.arena) {
		c.compact()
	}
	room := n + n/4
	c.arena = append(c.arena, int32(l), int32(room), 0)
	a = len(c.arena)
	c.arena = slices.Grow(c.arena, room)[:a+room]
	c.at[l] = int32(a)
	return c.arena[a : a : a+room]
}

// setLen sets the length of link l's row to n, which its slot holds.
func (c *cvRows) setLen(l, n int) {
	if a := c.at[l]; a != 0 {
		c.arena[a-1] = int32(n)
	}
}

// compact slides the live slots down over the dead ones, each cut to its
// row; a slot with an empty row goes.
func (c *cvRows) compact() {
	w := 0
	for p, next := 0, 0; p < len(c.arena); p = next {
		l, n := c.arena[p], int(c.arena[p+2])
		next = p + rowHeader + int(c.arena[p+1])
		if l < 0 {
			continue
		}
		if n == 0 {
			c.at[l] = 0
			continue
		}
		copy(c.arena[w:], c.arena[p:p+rowHeader+n])
		c.arena[w+1] = int32(n)
		c.at[l] = int32(w + rowHeader)
		w += rowHeader + n
	}
	c.arena = c.arena[:w]
	c.dead = 0
}

// Install is the intake rule for a link-state update flooded to a
// router. In order:
//   - an update from an origin outside the topology (Origin arrives as a
//     signed varint off the wire) is dropped whole, every summary counted,
//     before any sequence is recorded, so it never counts toward Heard;
//   - an update from self, or one whose sequence is not newer than the
//     origin's last, installs nothing;
//   - of a fresh update, summaries of self's own links are skipped, so
//     remote adverts never overwrite local truth, and the rest go through
//     Apply, which drops and counts those naming a link outside the
//     topology.
//
// fresh reports whether the update was installed and so travels on.
func (v *LinkStateView) Install(m proto.LSUpdate, self graph.NodeID) (fresh bool, dropped int) {
	if m.Origin < 0 || int(m.Origin) >= len(v.seq) {
		return false, len(m.Links)
	}
	if m.Origin == self || m.Seq <= v.seq[m.Origin] {
		return false, 0
	}
	if v.seq[m.Origin] == 0 {
		v.heard++
	}
	v.seq[m.Origin] = m.Seq
	for _, a := range m.Links {
		if !v.apply(a, self) {
			dropped++
		}
	}
	return true, dropped
}

// Heard is the number of origins the view has installed an update from.
func (v *LinkStateView) Heard() int { return v.heard }

// Apply installs a link summary, decoding the advert's Conflict Vector
// into the link's row in place, so steady-state adverts cost zero
// allocations; the advert's bytes are not retained. Bits at or past the
// number of links are ignored, a short vector reads as zero-padded. An
// advert naming a link outside the topology — Link arrives as a signed
// varint off the wire — is dropped: Apply reports false and the view is
// unchanged.
func (v *LinkStateView) Apply(a proto.LinkAdvert) bool {
	return v.apply(a, graph.InvalidNode)
}

// apply is Apply, except that a summary of a link leaving self is
// skipped: reported true, the view unchanged.
func (v *LinkStateView) apply(a proto.LinkAdvert, self graph.NodeID) bool {
	n := len(v.norm)
	if a.Link < 0 || int(a.Link) >= n {
		return false
	}
	if v.sel.G.Link(a.Link).From == self {
		return true
	}
	v.sel.Free[a.Link] = int32(a.AvailPrim)
	v.sel.AvailBackup[a.Link] = int32(a.AvailBackup)
	v.norm[a.Link] = int32(a.Norm)
	cv := a.CV[:min(len(a.CV), (n+7)/8)]
	set := 0
	for _, b := range cv {
		set += bits.OnesCount8(b)
	}
	row := v.rows.slot(int(a.Link), set)
	for i, b := range cv {
		for ; b != 0; b &= b - 1 {
			if j := i*8 + bits.TrailingZeros8(b); j < n {
				row = append(row, int32(j))
			}
		}
	}
	v.rows.setLen(int(a.Link), len(row))
	return true
}

// Link reports the view of one link: the bandwidth available to
// primaries, the bandwidth available to backups, and the advertised
// ‖APLV‖₁.
func (v *LinkStateView) Link(l graph.LinkID) (availPrim, availBackup, norm int) {
	return int(v.sel.Free[l]), int(v.sel.AvailBackup[l]), int(v.norm[l])
}

// RoutePrimary computes a minimum-hop route from src to dst over links
// with room for one more primary, never using a link blocked reports
// true for (nil blocks nothing). It returns the empty path when there is
// none.
func (v *LinkStateView) RoutePrimary(src, dst graph.NodeID, blocked func(graph.LinkID) bool) graph.Path {
	v.block(blocked)
	return v.sel.Primary(src, dst, 0)
}

// NextBackup computes the scheme's next backup route for a connection
// with the given primary and existing backups (lsr.Selector.NextBackup:
// the first backup may overlap the primary as a last resort, later ones
// must be disjoint from everything). Links blocked reports true for are
// never used (nil blocks nothing). It returns the empty path when there
// is none.
func (v *LinkStateView) NextBackup(primary graph.Path, existing []graph.Path, blocked func(graph.LinkID) bool) graph.Path {
	v.block(blocked)
	v.fillMetric(primary.Links())
	return v.sel.NextBackup(primary, existing, 0)
}

// Backups tops a connection with the given primary and existing backups
// up to k backups (lsr.Selector.Backups, the k-backup rule), never using a
// link blocked reports true for. It returns the routes it added.
func (v *LinkStateView) Backups(primary graph.Path, existing []graph.Path, k int, blocked func(graph.LinkID) bool) []graph.Path {
	v.block(blocked)
	v.fillMetric(primary.Links())
	return v.sel.Backups(primary, existing, k, 0)
}

// block marks the links blocked reports true for as down for the
// selection that follows.
func (v *LinkStateView) block(blocked func(graph.LinkID) bool) {
	clear(v.sel.Down)
	if blocked == nil {
		return
	}
	for l := range v.norm {
		if blocked(graph.LinkID(l)) {
			v.sel.Down.Add(graph.LinkID(l))
		}
	}
}

// fillMetric writes the scheme's conflict metric for a primary with the
// given LSET: the advertised norm (P-LSR) or the number of LSET links set
// in the link's Conflict Vector (D-LSR), counted by marking the LSET once
// and walking each link's row.
func (v *LinkStateView) fillMetric(lset []graph.LinkID) {
	if v.scheme == PLSR {
		for l, n := range v.norm {
			v.sel.Metric[l] = float64(n)
		}
		return
	}
	in, metric, arena := v.inLSET, v.sel.Metric, v.rows.arena
	for _, pl := range lset {
		in.Add(pl)
	}
	for l, a := range v.rows.at {
		n := 0
		if a != 0 {
			for _, j := range arena[a : a+arena[a-1]] {
				if in.Has(graph.LinkID(j)) {
					n++
				}
			}
		}
		metric[l] = float64(n)
	}
	for _, pl := range lset {
		in.Remove(pl)
	}
}

// holdDownsPerLSInterval sets the hold-down between two triggered adverts
// from one router as a fraction of Config.LSInterval: 10 ms at the default
// interval. It bounds a router's flood load by a constant instead of by
// the request rate (every hop of every walk touches a link), at the price
// of remote views trailing the owner by at most hold-down + flood time.
const holdDownsPerLSInterval = 10

// markDirtyLocked records a change to local link l: the local view, which
// Establish routes on, mirrors it at once, and a triggered advertisement
// is scheduled; a mark landing on one still pending is coalesced into it.
// Scheduling arms the loop's hold-down timer unless it already runs: to
// fire at once after a quiet period (leading edge), else when the window
// of the previous advert closes (trailing edge). A mark made on any
// goroutine thus gets its advert, and only the loop sends one.
// Callers must hold r.mu.
func (r *Router) markDirtyLocked(l graph.LinkID) {
	r.view.Apply(r.advertForLocked(l))
	if r.dirty {
		r.mAdvertsCoalesced.Inc()
	}
	r.dirty = true
	if !r.holdArmed {
		r.holdArmed = true
		r.holdDown.Reset(max(0, r.holdDownLeftLocked()))
	}
}

// holdDownLeftLocked is how long the hold-down of the last advert still
// runs; zero or less once it has closed. Callers must hold r.mu.
func (r *Router) holdDownLeftLocked() time.Duration {
	return r.cfg.LSInterval/holdDownsPerLSInterval - r.clock.Now().Sub(r.lastAdvert)
}

// flushAdverts is the one trigger path for triggered adverts, run by the
// loop when the hold-down timer fires. A pending change whose window has
// closed is flooded; one still inside it re-arms the timer for the rest
// of the window, so the window closes on one advert carrying the final
// state.
func (r *Router) flushAdverts() {
	r.mu.Lock()
	r.holdArmed = false
	if !r.dirty {
		r.mu.Unlock()
		return
	}
	if wait := r.holdDownLeftLocked(); wait > 0 {
		r.holdArmed = true
		r.holdDown.Reset(wait)
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	r.advertise(false)
}

// advertise sends this node's local link summaries: a triggered advert
// down this node's shortest-path tree, a refresh over every adjacency.
// Either way it settles dirty and restarts the hold-down.
func (r *Router) advertise(refresh bool) {
	r.mu.Lock()
	r.mySeq++
	r.dirty, r.lastAdvert = false, r.clock.Now()
	update := proto.LSUpdate{Origin: r.cfg.Node, Seq: r.mySeq, Refresh: refresh}
	for _, l := range r.g.Out(r.cfg.Node) {
		update.Links = append(update.Links, r.advertForLocked(l))
		// Local view mirrors local truth immediately.
		r.view.Apply(update.Links[len(update.Links)-1])
	}
	var buf [8]graph.NodeID
	to := r.floodTargetsLocked(buf[:0], update, r.cfg.Node)
	r.mu.Unlock()
	r.mAdvertsOriginated.Inc()
	r.tracer.LSUpdate(int(r.cfg.Node), len(update.Links))
	r.flood(to, update)
}

// advertForLocked summarizes one local link. Links to neighbors declared
// down, failed or held for a drain, advertise zero bandwidth so remote
// routing excludes them.
// Callers must hold r.mu.
func (r *Router) advertForLocked(l graph.LinkID) proto.LinkAdvert {
	if r.isDownLocked(r.g.Link(l).To) {
		return proto.LinkAdvert{
			Link: l,
			CV:   make([]byte, (r.g.NumLinks()+7)/8),
		}
	}
	return proto.LinkAdvert{
		Link:        l,
		AvailPrim:   r.db.FreeBW(l),
		AvailBackup: r.db.AvailableForBackup(l),
		Norm:        r.db.APLVNorm(l),
		CV:          r.db.AppendCV(l, nil),
	}
}

// handleLSUpdate installs an update (LinkStateView.Install) and passes a
// fresh one on (floodTargetsLocked).
func (r *Router) handleLSUpdate(from graph.NodeID, m proto.LSUpdate) {
	var buf [8]graph.NodeID
	r.mu.Lock()
	fresh, dropped := r.view.Install(m, r.cfg.Node)
	to := buf[:0]
	if fresh {
		to = r.floodTargetsLocked(to, m, from)
	}
	r.mu.Unlock()
	r.tracer.LSUpdateDropped(int(r.cfg.Node), dropped)
	r.flood(to, m)
}

// floodTargetsLocked appends to dst the neighbours an update received
// from `from` (this router, when it originates the update) goes on to. A
// refresh goes to every neighbour but from. A triggered update goes only
// to the live neighbours whose parent in the origin's shortest-path tree
// this router is, so each router receives it once, along a shortest path:
// nodes − 1 sends per advert against Σdeg − (nodes − 1) for a refresh. A
// router below a failed tree edge or a lost copy trails until the origin's
// next advert, a refresh at the latest. Callers must hold r.mu.
func (r *Router) floodTargetsLocked(dst []graph.NodeID, m proto.LSUpdate, from graph.NodeID) []graph.NodeID {
	if m.Refresh {
		for _, n := range r.nbrs {
			if n != from {
				dst = append(dst, n)
			}
		}
		return dst
	}
	for _, n := range r.tree.children(m.Origin) {
		if n != from && !r.isDownLocked(n) {
			dst = append(dst, n)
		}
	}
	return dst
}

// flood sends one update to each of the given neighbours and counts the
// copies.
func (r *Router) flood(to []graph.NodeID, m proto.LSUpdate) {
	for _, n := range to {
		r.send(n, m)
	}
	r.mAdvertsSent.Add(int64(len(to)))
}

// floodTree is this router's share of every origin's shortest-path tree
// on the static topology: for each origin, the neighbours whose parent
// this router is. A node's parent in origin o's tree is its neighbour
// with the fewest hops to o, the lowest node ID on ties, so every router
// derives the same tree, and the origin is the parent of each of its
// neighbours. One list of children per origin, packed in one slice: O(nodes)
// in all at bounded degree.
type floodTree struct {
	// start[o]:start[o+1] indexes origin o's children in kids.
	start []int32
	kids  []graph.NodeID
}

// newFloodTree finds self's children in every origin's tree from one
// breadth-first search per node within two hops of self: hops(p, o) for
// self and for every other neighbour p of each neighbour of self.
func newFloodTree(g *graph.Graph, self graph.NodeID, nbrs []graph.NodeID) floodTree {
	n := g.NumNodes()
	hops := func(p graph.NodeID) []int {
		d := graph.HopDistances(g, p)
		for o, h := range d {
			if h < 0 {
				d[o] = math.MaxInt
			}
		}
		return d
	}
	mine := hops(self)
	// parent[i][o]: self is nbrs[i]'s parent in o's tree.
	parent := make([][]bool, len(nbrs))
	t := floodTree{start: make([]int32, n+1)}
	for i, c := range nbrs {
		is := make([]bool, n)
		for o := range is {
			is[o] = graph.NodeID(o) != c && mine[o] != math.MaxInt
		}
		for _, p := range g.Neighbors(c) {
			if p == self {
				continue
			}
			theirs := hops(p)
			for o := range is {
				if theirs[o] < mine[o] || theirs[o] == mine[o] && p < self {
					is[o] = false
				}
			}
		}
		for o, ok := range is {
			if ok {
				t.start[o+1]++
			}
		}
		parent[i] = is
	}
	for o := 0; o < n; o++ {
		t.start[o+1] += t.start[o]
	}
	t.kids = make([]graph.NodeID, t.start[n])
	next := append([]int32(nil), t.start[:n]...)
	for i, c := range nbrs {
		for o, ok := range parent[i] {
			if ok {
				t.kids[next[o]] = c
				next[o]++
			}
		}
	}
	return t
}

// bytes returns the memory the tree holds.
func (t floodTree) bytes() int64 { return 4*int64(cap(t.start)) + 4*int64(cap(t.kids)) }

// children lists the neighbours whose parent in origin's tree this router
// is, ascending.
func (t floodTree) children(origin graph.NodeID) []graph.NodeID {
	return t.kids[t.start[origin]:t.start[origin+1]]
}
