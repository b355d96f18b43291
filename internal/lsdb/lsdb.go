// Package lsdb implements the link-state bookkeeping that DRTP routers
// maintain per link: bandwidth accounting (capacity, primary, spare), the
// Accumulated Primary-route Link Vector (APLV), the Conflict Vector (CV)
// derived from it, and the backup-channel registry keyed by connection.
//
// The paper's notation maps as follows:
//
//   - APLV_i[j]  -> DB.APLVAt(i, j): number of primary channels through
//     link j whose backups traverse link i.
//   - ‖APLV_i‖₁ -> DB.APLVNorm(i): the scalar P-LSR advertises.
//   - CV_i[j]    -> DB.CVBit(i, j): the bit D-LSR advertises.
//   - SC_i       -> DB.SC(i): backups activatable from spare resources.
//
// All DR-connections reserve the same bandwidth (the paper's constant
// bw-req), fixed at construction as the DB's unit bandwidth.
//
// A DB has one writer — a simulator cell is one goroutine, a router
// mutates its DB from its own loop under Router.mu — so the link records
// are one flat slice behind one mutex. The mutex is kept only because a
// router's DB is also read from outside that loop (tests, examples, the
// drtpnode console via Router.DB()); the routing hot paths take it once
// per batch read (snapshot.go), not once per link.
//
// Each of the paper's per-link transitions — reserve a primary, release
// it, register a backup, release it, promote it on activation — has
// exactly one body, a ...Locked method below. The per-link methods are
// lock + body; the whole-path methods (snapshot.go) are lock + the same
// bodies over the path, with the outcome of a per-link loop that stops
// (and for reserve, register and promote rolls back) at its first failure.
// The backup bodies take a path's links at once, so a registration or
// release visits each APLV column once (aplv.go). The shared-link
// activation rule (a link that already carries the connection's primary
// keeps that reservation and only drops the backup registration) lives in
// the promote body, so the simulator's Manager and the router's hop
// handler both get it by calling PromoteBackupPath / PromoteBackup.
package lsdb

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"github.com/rtcl/drtp/internal/graph"
)

// ConnID identifies a DR-connection across the system.
type ConnID int64

// Mode selects how spare resources are sized for backups.
type Mode int

const (
	// Multiplexed is DRTP's backup multiplexing: spare bandwidth on a
	// link covers only max_j APLV[j] simultaneous activations, shared by
	// all backups on the link (the paper's scheme).
	Multiplexed Mode = iota + 1
	// Dedicated reserves full bandwidth for every backup individually
	// (no multiplexing) — the strawman the paper rejects because it
	// halves network capacity. Used as an ablation baseline.
	Dedicated
)

// String returns a short identifier for the mode.
func (m Mode) String() string {
	switch m {
	case Multiplexed:
		return "multiplexed"
	case Dedicated:
		return "dedicated"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ErrInsufficientBandwidth is returned when a reservation does not fit.
type ErrInsufficientBandwidth struct {
	Link graph.LinkID
	Need int
	Have int
}

func (e *ErrInsufficientBandwidth) Error() string {
	return fmt.Sprintf("lsdb: link %d has %d bandwidth, need %d", e.Link, e.Have, e.Need)
}

// linkState is the per-link record a DRTP connection manager maintains.
// Every link has the database's capacity (DB.capacity).
type linkState struct {
	prime int // bandwidth reserved by primary channels
	spare int // bandwidth reserved for (multiplexed) backups
	norm  int // ‖APLV‖₁, maintained incrementally
	// maxElem is max_j APLV[j] and atMax the number of counters at it (0
	// while maxElem is, -1 while it is not known), maintained
	// incrementally (aplv.go).
	maxElem, atMax int32
	// backups is the backup registry: every backup channel registered on
	// this link, as the handle of the LSET table slot (lset.go) holding its
	// connection and the LSET of its primary (carried in backup-register
	// packets), connection IDs ascending. IDs grow with time, so a
	// registration mostly appends (DB.findBackupLocked). The link's APLV row is
	// folded from it where a whole row is read.
	backups []uint32
	// primaries lists the DR-connections with a primary channel on this
	// link, in no particular order. A link holds at most capacity/unitBW of
	// them, so membership is a short scan.
	//
	// backups and primaries, like the APLV columns (DB.cols), give capacity
	// back as they empty (shrink): a link holds what it carries now.
	primaries []ConnID
}

// entryBytes is the size of one APLV column entry.
const entryBytes = int64(unsafe.Sizeof(DB{}.cols[0][0]))

// findBackupLocked returns the position of id in link state s's backup registry,
// or the position it would be inserted at, and whether it is registered;
// each probe reads an entry's ID from its LSET table slot. IDs grow with
// time, so a new registration mostly lands past the last entry: that is
// checked first, before the binary search. The caller must hold db.mu.
func (db *DB) findBackupLocked(s *linkState, id ConnID) (int, bool) {
	b, lsets := s.backups, db.lsets
	if len(b) == 0 || lsets[b[len(b)-1]].id < id {
		return len(b), false
	}
	lo, hi := 0, len(b)-1 // lsets[b[hi]].id >= id
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if lsets[b[m]].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lsets[b[lo]].id == id
}

// DB is the link-state database over the links it owns. The simulator's
// owns every link of the network, mirroring the paper's assumption that
// link-state information is disseminated (New); a router's owns its
// outgoing links and advertises their summaries (NewOwned). A link's APLV
// is built from the LSETs the register packets crossing it carry, so
// only the link's own node needs it, and a router's database grows with
// its own links and the primaries their backups protect, not with the
// network.
//
// Every write names a link by its graph.LinkID and fails on a link the
// database does not own; a read of one panics, as an index out of range
// does.
type DB struct {
	g        *graph.Graph
	capacity int // every link's bandwidth; immutable after construction
	unitBW   int
	mode     Mode
	n        int // links in the network; immutable after construction
	// cbits is the width of a column entry's count, below its link, and
	// maxCount the largest count it holds: 32 − bits.Len(n) and
	// 1<<cbits − 1, fixed at construction (aplv.go).
	cbits    uint
	maxCount uint32
	// owned lists the links the database keeps records for, ascending,
	// or is nil when it owns every link, each then at its own ID;
	// immutable after construction.
	owned []graph.LinkID

	mu sync.Mutex
	// links holds the records of the owned links, in owned's order (by
	// graph.LinkID when owned is nil); guarded by mu.
	links []linkState
	// cols holds the APLV columns (aplv.go): owning every link, one per
	// link at its ID; otherwise one for each link that some owned link's
	// LSETs name, in colKeys's order, colKeys holding those links
	// ascending. Guarded by mu.
	cols    [][]uint32
	colKeys []graph.LinkID
	// spareCols holds, emptied, the arrays of columns a release dropped,
	// for the next columns a registration adds: a router's columns come
	// and go with every connection through it. At most keepRoute, each
	// of at most keepRoute entries; guarded by mu.
	spareCols [][]uint32

	// lsets is the LSET table the registries' handles index, and
	// freeLSETs its free slots (lset.go); guarded by mu.
	lsets     []lsetSlot
	freeLSETs []uint32

	// sortedLSET is the scratch the APLV folds read an LSET from, sorted,
	// and sortedFrom the handle of the LSET it was sorted from, or noLSET
	// (sortedLSETLocked); sortedPath holds a path's links sorted for the
	// folds (sortedPathLocked); recount is the dense per-link scratch a
	// maximum is recounted in, all zero between uses (recountMaxLocked);
	// guarded by mu.
	sortedLSET []graph.LinkID
	sortedFrom uint32
	sortedPath []graph.LinkID
	recount    []int32

	// backupOps counts per-link backup register/release/promote updates:
	// each is driven by one backup-register/release/activate packet, the
	// signalling volume of the link-state schemes; guarded by mu.
	backupOps int64

	// totalPrime and totalSpare are Σ prime and Σ spare over all links,
	// kept current where either changes (the reserve, release and promote
	// bodies, resizeSpareLocked); guarded by mu.
	totalPrime, totalSpare int

	// changed is the change log SnapshotInto patches from: the link of
	// every transition that moved a snapshot scalar, oldest first, entry k
	// being change number changedBase+k. It is cut once it holds one entry
	// per owned link (a reader that far behind refills in full as
	// cheaply), so it is allocated at that size once; guarded by mu.
	changed     []int32
	changedBase uint64
}

// New creates a database that owns every link of graph g, where every link
// has the given capacity and every DR-connection reserves unitBW, with
// backup multiplexing enabled.
func New(g *graph.Graph, capacity, unitBW int) (*DB, error) {
	return NewWithMode(g, capacity, unitBW, Multiplexed)
}

// NewWithMode is New with an explicit spare-sizing mode.
func NewWithMode(g *graph.Graph, capacity, unitBW int, mode Mode) (*DB, error) {
	return newDB(g, capacity, unitBW, mode, nil)
}

// NewOwned is New for a database that owns only the given links of g, as
// a router owns its outgoing links (g.Out(node)).
func NewOwned(g *graph.Graph, capacity, unitBW int, owned []graph.LinkID) (*DB, error) {
	owned = append([]graph.LinkID{}, owned...)
	slices.Sort(owned)
	for k, l := range owned {
		if l < 0 || int(l) >= g.NumLinks() || k > 0 && owned[k-1] == l {
			return nil, fmt.Errorf("lsdb: owned link %d out of range [0,%d) or named twice", l, g.NumLinks())
		}
	}
	return newDB(g, capacity, unitBW, Multiplexed, owned)
}

// newDB creates a database owning the given ascending links, or every
// link when owned is nil.
func newDB(g *graph.Graph, capacity, unitBW int, mode Mode, owned []graph.LinkID) (*DB, error) {
	if capacity <= 0 || capacity > math.MaxInt32 {
		return nil, fmt.Errorf("lsdb: capacity must be positive and fit 32 bits, got %d", capacity)
	}
	if unitBW <= 0 || unitBW > capacity {
		return nil, fmt.Errorf("lsdb: unit bandwidth %d out of range (0,%d]", unitBW, capacity)
	}
	if mode != Multiplexed && mode != Dedicated {
		return nil, fmt.Errorf("lsdb: invalid mode %d", int(mode))
	}
	n, records := g.NumLinks(), len(owned)
	var cols [][]uint32
	if owned == nil {
		records = n
		cols = make([][]uint32, n)
	}
	cbits := uint(32 - bits.Len(uint(n)))
	return &DB{g: g, capacity: capacity, unitBW: unitBW, mode: mode, n: n,
		cbits: cbits, maxCount: 1<<cbits - 1, owned: owned, cols: cols,
		links: make([]linkState, records), changed: make([]int32, 0, records), sortedFrom: noLSET}, nil
}

// slotOf returns the index of link l's record and whether the database
// owns l. A router owns its out-links, a handful: a scan finds one sooner
// than a binary search.
func (db *DB) slotOf(l graph.LinkID) (int, bool) {
	if db.owned == nil {
		return int(l), uint(l) < uint(db.n)
	}
	for k, o := range db.owned {
		if o == l {
			return k, true
		}
	}
	return 0, false
}

// atLocked returns the record of link l, which the database must own. The
// caller must hold db.mu.
func (db *DB) atLocked(l graph.LinkID) *linkState {
	if db.owned != nil {
		l = graph.LinkID(db.ownedSlot(l))
	}
	return &db.links[l]
}

// ownedSlot is slotOf for a database that does not own every link; it
// panics on a link the database does not own.
func (db *DB) ownedSlot(l graph.LinkID) int {
	k, ok := db.slotOf(l)
	if !ok {
		panic(fmt.Sprintf("lsdb: link %d is not one of the database's %d links", l, len(db.owned)))
	}
	return k
}

// linkOf returns the link whose record is at index i.
func (db *DB) linkOf(i int) graph.LinkID {
	if db.owned == nil {
		return graph.LinkID(i)
	}
	return db.owned[i]
}

// owns reports whether the database keeps link l's records.
func (db *DB) owns(l graph.LinkID) bool {
	_, ok := db.slotOf(l)
	return ok
}

// recLocked returns the record of link l for a write, or an error when the
// database does not own l. The caller must hold db.mu.
func (db *DB) recLocked(l graph.LinkID) (*linkState, error) {
	k, ok := db.slotOf(l)
	if !ok {
		return nil, fmt.Errorf("lsdb: link %d is not one of the database's links", l)
	}
	return &db.links[k], nil
}

// Graph returns the underlying topology.
func (db *DB) Graph() *graph.Graph { return db.g }

// UnitBW returns the bandwidth each DR-connection reserves.
func (db *DB) UnitBW() int { return db.unitBW }

// NumLinks returns the number of unidirectional links in the network; the
// database owns all of them or those it was built for (NewOwned).
func (db *DB) NumLinks() int { return db.n }

// Capacity returns the total bandwidth of link l: every link has the
// capacity the database was built with.
func (db *DB) Capacity(l graph.LinkID) int { return db.capacity }

// PrimeBW returns the bandwidth reserved by primary channels on link l.
func (db *DB) PrimeBW(l graph.LinkID) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.atLocked(l).prime
}

// SpareBW returns the bandwidth reserved for backup channels on link l.
func (db *DB) SpareBW(l graph.LinkID) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.atLocked(l).spare
}

// FreeBW returns the unallocated bandwidth on link l
// (capacity - prime - spare): what a new primary channel could reserve
// there, since primaries may not displace spare resources.
func (db *DB) FreeBW(l graph.LinkID) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := db.atLocked(l)
	return db.capacity - s.prime - s.spare
}

// AvailableForBackup returns the paper's "available bandwidth" for backup
// routing: unallocated bandwidth plus the spare bandwidth already shared by
// backups (capacity - prime).
func (db *DB) AvailableForBackup(l graph.LinkID) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.capacity - db.atLocked(l).prime
}

// ReservePrimary reserves unit bandwidth for connection id's primary
// channel on link l.
func (db *DB) ReservePrimary(id ConnID, l graph.LinkID) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.reservePrimaryLocked(id, l)
}

// reservePrimaryLocked is the reserve transition; the caller must hold
// db.mu.
func (db *DB) reservePrimaryLocked(id ConnID, l graph.LinkID) error {
	s, err := db.recLocked(l)
	if err != nil {
		return err
	}
	if free := db.capacity - s.prime - s.spare; free < db.unitBW {
		return &ErrInsufficientBandwidth{Link: l, Need: db.unitBW, Have: free}
	}
	if slices.Contains(s.primaries, id) {
		return fmt.Errorf("lsdb: connection %d already has a primary on link %d", id, l)
	}
	s.prime += db.unitBW
	db.totalPrime += db.unitBW
	s.primaries = append(s.primaries, id)
	db.touchLocked(l)
	return nil
}

// touchLocked logs that link l's prime, spare or norm — what a Snapshot
// copies — moved: every transition body ends here. Caller holds db.mu.
func (db *DB) touchLocked(l graph.LinkID) {
	if len(db.changed) >= len(db.links) {
		db.changedBase += uint64(len(db.changed))
		db.changed = db.changed[:0]
	}
	db.changed = append(db.changed, int32(l))
}

// ReleasePrimary releases connection id's primary reservation on link l.
func (db *DB) ReleasePrimary(id ConnID, l graph.LinkID) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.releasePrimaryLocked(id, l)
}

// releasePrimaryLocked is the release-primary transition; the caller must
// hold db.mu. Spare is not resized here: it follows backup operations only.
func (db *DB) releasePrimaryLocked(id ConnID, l graph.LinkID) error {
	s, err := db.recLocked(l)
	if err != nil {
		return err
	}
	k := slices.Index(s.primaries, id)
	if k < 0 {
		return fmt.Errorf("lsdb: connection %d has no primary on link %d", id, l)
	}
	s.primaries = shrink(swapRemove(s.primaries, k), keepOne)
	s.prime -= db.unitBW
	db.totalPrime -= db.unitBW
	db.touchLocked(l)
	return nil
}

// RegisterBackup registers connection id's backup channel on link l. The
// register packet carries primaryLSET, the links of the corresponding
// primary route, which updates this link's APLV. Spare resources are grown
// to cover max_j APLV[j] simultaneous activations when free bandwidth
// allows; if it does not, the backup is multiplexed on the existing spare
// resources anyway (paper §5, choice 2) and the link runs a deficit.
//
// Registration fails when the database does not own l, when the link
// cannot hold even one activation of this backup, i.e. capacity - prime <
// unit bandwidth, when primaryLSET
// names a link outside the network, or when primaryLSET is long enough to
// lift the link's max_j APLV[j] past what an APLV counter holds
// (2^(32−bits.Len(links)) − 1: 131 071 at 30 000 links).
func (db *DB) RegisterBackup(id ConnID, l graph.LinkID, primaryLSET []graph.LinkID) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	h := db.newLSETLocked(id, slices.Clone(primaryLSET))
	err := db.registerBackupsLocked([]graph.LinkID{l}, h)
	db.unrefLSETLocked(h)
	return err
}

// registerBackupsLocked is the register transition over the links of a
// path, for the connection and LSET in LSET table slot h, with the outcome
// of a per-link loop that rolls back at its first failure: if every link
// admits the registration, all are attached at once; else the links before
// the first that refuses are attached, that link refuses on the state they
// leave (a link named twice, too) and they are detached again. The caller
// must hold db.mu and a reference to h (newLSETLocked: one per call,
// shared by a path).
func (db *DB) registerBackupsLocked(links []graph.LinkID, h uint32) error {
	path, twice := db.sortedPathLocked(links)
	for i, l := range links {
		if err := db.checkRegisterLocked(l, h); err != nil || twice && slices.Contains(links[:i], l) {
			path, _ = db.sortedPathLocked(links[:i])
			db.attachBackupLocked(path, h)
			err = db.checkRegisterLocked(l, h)
			db.detachBackupLocked(path, h)
			return err
		}
	}
	db.attachBackupLocked(path, h)
	return nil
}

// checkRegisterLocked returns the error registering the backup of LSET
// table slot h's connection on link l gives, or nil. An LSET arrives off the
// wire, so its entries are checked before anything is mutated, and so is
// its length: it raises no counter of l's APLV by more than that, so an
// LSET that could lift l's maximum past maxCount is refused before any
// counter could overflow into its column entry's link. The caller must
// hold db.mu.
func (db *DB) checkRegisterLocked(l graph.LinkID, h uint32) error {
	s, err := db.recLocked(l)
	if err != nil {
		return err
	}
	id := db.lsets[h].id
	if avail := db.capacity - s.prime; avail < db.unitBW {
		return &ErrInsufficientBandwidth{Link: l, Need: db.unitBW, Have: avail}
	}
	if db.mode == Dedicated {
		// No overbooking: the spare pool must grow by a full unit.
		if free := db.capacity - s.prime - s.spare; free < db.unitBW {
			return &ErrInsufficientBandwidth{Link: l, Need: db.unitBW, Have: free}
		}
	}
	if _, dup := db.findBackupLocked(s, id); dup {
		return fmt.Errorf("lsdb: connection %d already has a backup on link %d", id, l)
	}
	if _, err := db.sortedLSETLocked(h); err != nil {
		return err
	}
	if k := len(db.lsets[h].links); int(s.maxElem)+k > int(db.maxCount) {
		return fmt.Errorf("lsdb: an LSET of %d links could raise link %d's APLV maximum %d past %d, the most its counters hold", k, l, s.maxElem, db.maxCount)
	}
	return nil
}

// attachBackupLocked registers the backup of LSET table slot h's
// connection on every link of path — ascending, each once, each checked,
// none naming the connection yet — taking one reference per link to h,
// folds its LSET into their APLVs in one merge per column (foldInLocked)
// and resizes their spare; it counts one backup op per link. h holds the
// registry's own copy, already checked: the exported callers clone it into
// a new slot, rollback re-attaches the slot a promotion held. The caller
// must hold db.mu.
func (db *DB) attachBackupLocked(path []graph.LinkID, h uint32) {
	sorted, _ := db.sortedLSETLocked(h) // checked by the caller
	id := db.lsets[h].id
	for _, l := range path {
		db.backupOps++
		s := db.atLocked(l)
		k, _ := db.findBackupLocked(s, id)
		s.backups = slices.Insert(s.backups, k, h)
		s.norm += len(sorted)
	}
	db.lsets[h].refs += int32(len(path))
	db.foldInLocked(path, sorted)
	for _, l := range path {
		db.resizeSpareLocked(db.atLocked(l))
		db.touchLocked(l)
	}
}

// swapRemove removes s[k] from a slice whose order carries no meaning.
func swapRemove[T any](s []T, k int) []T {
	last := len(s) - 1
	s[k] = s[last]
	return s[:last]
}

// shrink hands back the capacity a removal left idle: a slice at a
// quarter of its capacity or less moves to one of half that capacity, or
// of a half again while it would still be at a quarter — a compaction that
// drops several entries at once ends where one removal at a time would
// have, or lower. Growth doubles (a quarter for columns) and shrinking
// halves, so a slice just resized must gain or lose a quarter of its
// capacity before it is copied again — amortised O(1) per entry. Capacity
// up to keep is never handed back.
func shrink[T any](s []T, keep int) []T {
	c := cap(s)
	for c > keep && 4*len(s) <= c {
		c = max(c/2, keep)
	}
	if c == cap(s) {
		return s
	}
	return append(make([]T, 0, c), s...)
}

// keepOne and keepRoute are the capacities shrink leaves a slice: the room
// one request needs in it, so a register/release pair on a lightly loaded
// link allocates nothing. A request adds one entry to a link's registry
// or primaries, but up to a backup path's links to a column — and the
// quarter rule leaves a slice of L entries only 2L of room.
const (
	keepOne   = 3
	keepRoute = 16
)

// detachBackupLocked reverses attachBackupLocked for the registrations
// under LSET table slot h on every link of path, ascending and each once:
// the registrations leave the registries, the LSET, sorted once for all of
// them, is folded out of their APLVs in one pass per column (foldOutLocked: zeroed entries are compacted out, a maximum is
// recounted only when it cannot be told otherwise), and each
// registration's reference to h is dropped; it counts one backup op per
// link. The caller must hold db.mu.
func (db *DB) detachBackupLocked(path []graph.LinkID, h uint32) {
	sorted, _ := db.sortedLSETLocked(h) // checked at registration
	id := db.lsets[h].id
	for _, l := range path {
		db.backupOps++
		s := db.atLocked(l)
		k, _ := db.findBackupLocked(s, id)
		s.backups = shrink(slices.Delete(s.backups, k, k+1), keepOne)
		s.norm -= len(sorted)
	}
	db.foldOutLocked(path, sorted)
	for _, l := range path {
		db.unrefLSETLocked(h)
		db.resizeSpareLocked(db.atLocked(l))
		db.touchLocked(l)
	}
}

// ReleaseBackup removes connection id's backup channel from link l,
// reversing the APLV updates using the LSET stored at registration and
// shrinking spare resources to the new requirement.
func (db *DB) ReleaseBackup(id ConnID, l graph.LinkID) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.releaseBackupsLocked(id, []graph.LinkID{l})
}

// releaseBackupsLocked is the release-backup transition over the links of
// a path: when every link is owned and holds a registration of id under
// one LSET table slot and none is named twice, all are detached at once;
// else the links are released one by one up to the first without a
// registration, whose error is returned (a link named again has none
// left). The caller must hold db.mu.
func (db *DB) releaseBackupsLocked(id ConnID, links []graph.LinkID) error {
	path, twice := db.sortedPathLocked(links)
	h, batch := uint32(noLSET), !twice
	for _, l := range path {
		x, owned := db.slotOf(l)
		if !owned {
			batch = false
			break
		}
		s := &db.links[x]
		k, ok := db.findBackupLocked(s, id)
		if batch = batch && ok && (h == noLSET || s.backups[k] == h); !batch {
			break
		}
		h = s.backups[k]
	}
	if batch {
		if len(path) > 0 {
			db.detachBackupLocked(path, h)
		}
		return nil
	}
	for i, l := range links {
		s, err := db.recLocked(l)
		if err != nil {
			return err
		}
		k, ok := db.findBackupLocked(s, id)
		if !ok {
			return fmt.Errorf("lsdb: connection %d has no backup on link %d", id, l)
		}
		db.detachBackupLocked(links[i:i+1], s.backups[k])
	}
	return nil
}

// PromoteBackup activates connection id's backup on link l: one unit of
// the spare pool is converted into primary bandwidth and the backup
// registration is removed (its APLV contribution disappears with it). On a
// link that already carries the connection's primary — the backup shares
// it with the failed primary — the reservation is kept and only the
// registration is dropped. It fails with ErrInsufficientBandwidth when the
// spare pool has no free activation slot — the contention among
// conflicting backups multiplexed on the same spare resources.
func (db *DB) PromoteBackup(id ConnID, l graph.LinkID) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	p, err := db.promoteBackupLocked(id, l)
	if err == nil {
		db.unrefLSETLocked(p.lset)
	}
	return err
}

// promotion is what promoteBackupLocked did to one link, enough to undo it.
type promotion struct {
	link      graph.LinkID
	lset      uint32 // the registration's LSET table slot, still referenced
	converted bool   // false: the link already held id's primary
}

// promoteBackupLocked is the promote transition; the caller must hold
// db.mu. The promotion keeps a reference to the registration's LSET table
// slot, so a rollback can re-attach it; the caller drops it
// (unrefLSETLocked) once the promotion can no longer be undone.
func (db *DB) promoteBackupLocked(id ConnID, l graph.LinkID) (promotion, error) {
	s, err := db.recLocked(l)
	if err != nil {
		return promotion{}, err
	}
	k, ok := db.findBackupLocked(s, id)
	if !ok {
		return promotion{}, fmt.Errorf("lsdb: connection %d has no backup on link %d", id, l)
	}
	shared := slices.Contains(s.primaries, id)
	if !shared {
		if s.spare < db.unitBW {
			return promotion{}, &ErrInsufficientBandwidth{Link: l, Need: db.unitBW, Have: s.spare}
		}
		// Consume one activation slot: the promoted channel's bandwidth
		// moves from the shared spare pool into primary bandwidth.
		s.prime += db.unitBW
		db.totalPrime += db.unitBW
		s.primaries = append(s.primaries, id)
	}
	h := s.backups[k]
	db.lsets[h].refs++
	db.detachBackupLocked([]graph.LinkID{l}, h)
	return promotion{link: l, lset: h, converted: !shared}, nil
}

// resizeSpareLocked sets a link's spare bandwidth to the mode's requirement:
// max_j APLV[j] activations under multiplexing, or one unit per backup
// under dedicated reservation; capped at what fits beside the primaries.
// The caller must hold db.mu.
func (db *DB) resizeSpareLocked(s *linkState) {
	required := int(s.maxElem) * db.unitBW
	if db.mode == Dedicated {
		required = len(s.backups) * db.unitBW
	}
	if room := db.capacity - s.prime; required > room {
		required = room
	}
	db.totalSpare += required - s.spare
	s.spare = required
}

// Mode returns the spare-sizing mode.
func (db *DB) Mode() Mode { return db.mode }

// BackupOps returns the cumulative number of backup register/release
// per-link updates processed by this database.
func (db *DB) BackupOps() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.backupOps
}

// APLVAt returns APLV_l[j].
func (db *DB) APLVAt(l, j graph.LinkID) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.aplvAtLocked(l, j)
}

// APLV returns a copy of link l's APLV.
func (db *DB) APLV(l graph.LinkID) []int {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]int, db.n)
	for _, h := range db.atLocked(l).backups {
		for _, j := range db.lsets[h].links {
			out[j]++
		}
	}
	return out
}

// APLVNorm returns ‖APLV_l‖₁, the scalar advertised by P-LSR.
func (db *DB) APLVNorm(l graph.LinkID) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.atLocked(l).norm
}

// APLVMax returns max_j APLV_l[j], which sizes the spare resources.
func (db *DB) APLVMax(l graph.LinkID) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return int(db.atLocked(l).maxElem)
}

// CVBit returns the Conflict Vector bit c_{l,j}: true iff at least one
// primary channel through link j has its backup on link l.
func (db *DB) CVBit(l, j graph.LinkID) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.aplvAtLocked(l, j) > 0
}

// SC returns the number of backups on link l that can be activated
// simultaneously from the reserved spare resources (paper's SC_i).
func (db *DB) SC(l graph.LinkID) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.scLocked(l)
}

// scLocked is SC without locking; callers must hold db.mu.
func (db *DB) scLocked(l graph.LinkID) int { return db.atLocked(l).spare / db.unitBW }

// HasDeficit reports whether link l multiplexes conflicting backups beyond
// its spare resources, i.e. some single link failure could require more
// activations than SC_l allows.
func (db *DB) HasDeficit(l graph.LinkID) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return int(db.atLocked(l).maxElem) > db.scLocked(l)
}

// BackupsOn returns the connection IDs with backups registered on link
// l, ascending.
func (db *DB) BackupsOn(l graph.LinkID) []ConnID {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := db.atLocked(l)
	out := make([]ConnID, len(s.backups))
	for k, h := range s.backups {
		out[k] = db.lsets[h].id
	}
	return out
}

// NumBackupsOn returns the number of backups registered on link l.
func (db *DB) NumBackupsOn(l graph.LinkID) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.atLocked(l).backups)
}

// PrimariesOn returns the number of primary channels on link l.
func (db *DB) PrimariesOn(l graph.LinkID) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.atLocked(l).primaries)
}

// AppendPrimariesOn appends to dst the IDs of the connections with a
// primary channel on link l, each once, in no particular order: what a
// failure of l touches, without a scan over the connections.
func (db *DB) AppendPrimariesOn(dst []ConnID, l graph.LinkID) []ConnID {
	db.mu.Lock()
	defer db.mu.Unlock()
	return append(dst, db.atLocked(l).primaries...)
}

// HasPrimary reports whether connection id's primary traverses link l.
func (db *DB) HasPrimary(id ConnID, l graph.LinkID) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return slices.Contains(db.atLocked(l).primaries, id)
}

// HasBackup reports whether connection id's backup traverses link l.
func (db *DB) HasBackup(id ConnID, l graph.LinkID) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	_, ok := db.findBackupLocked(db.atLocked(l), id)
	return ok
}

// HasBackupUnder reports whether connection id's backup traverses link l
// registered with exactly the given primary LSET.
func (db *DB) HasBackupUnder(id ConnID, l graph.LinkID, primaryLSET []graph.LinkID) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := db.atLocked(l)
	k, ok := db.findBackupLocked(s, id)
	return ok && slices.Equal(db.lsets[s.backups[k]].links, primaryLSET)
}

// TotalPrimeBW returns the sum of primary bandwidth over all links, a
// measure of carried load.
func (db *DB) TotalPrimeBW() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.totalPrime
}

// TotalSpareBW returns the sum of spare bandwidth over all links, the
// paper's fault-tolerance resource overhead.
func (db *DB) TotalSpareBW() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.totalSpare
}

// TotalCapacity returns the sum of capacity over the owned links.
func (db *DB) TotalCapacity() int {
	if db.owned != nil {
		return db.capacity * len(db.owned)
	}
	return db.capacity * db.n
}

// APLVBytes returns the bytes of APLV counter storage currently held
// across all links: one column entry (4 bytes) per nonzero counter. This is
// the quantity the columns exist to shrink — a dense array on every link
// would pin it at links² × 4 bytes regardless of load, while columns grow
// with the conflicts that actually exist — and the scale experiment
// reports it per accepted connection.
func (db *DB) APLVBytes() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	var total int64
	for _, col := range db.cols {
		total += entryBytes * int64(len(col))
	}
	return total
}

// Footprint is the memory a database holds by structure, in bytes: each
// slice's capacity times its element size.
type Footprint struct {
	Columns     int64 `json:"columns"` // entries, headers and keys
	Registries  int64 `json:"registries"`
	Primaries   int64 `json:"primaries"`
	LSETTable   int64 `json:"lset_table"`   // slots, clones and free list
	LinkRecords int64 `json:"link_records"` // records and the owned list
	ChangeLog   int64 `json:"change_log"`
	Scratch     int64 `json:"scratch"` // the folds' sorted LSET and path, the recount
}

// Total returns the bytes of every structure.
func (f Footprint) Total() int64 {
	return f.Columns + f.Registries + f.Primaries + f.LSETTable + f.LinkRecords + f.ChangeLog + f.Scratch
}

// Footprint returns the bytes the database holds, by structure.
func (db *DB) Footprint() Footprint {
	db.mu.Lock()
	defer db.mu.Unlock()
	f := Footprint{
		LinkRecords: int64(cap(db.links))*int64(unsafe.Sizeof(linkState{})) + 4*int64(cap(db.owned)),
		ChangeLog:   4 * int64(cap(db.changed)),
		Columns:     int64(cap(db.cols))*int64(unsafe.Sizeof(db.cols[0])) + 4*int64(cap(db.colKeys)),
		LSETTable:   int64(cap(db.lsets))*int64(unsafe.Sizeof(lsetSlot{})) + 4*int64(cap(db.freeLSETs)),
		Scratch:     4 * int64(cap(db.sortedLSET)+cap(db.sortedPath)+cap(db.recount)),
	}
	for _, col := range db.cols {
		f.Columns += entryBytes * int64(cap(col))
	}
	f.Columns += int64(cap(db.spareCols)) * int64(unsafe.Sizeof(db.cols[0]))
	for _, col := range db.spareCols {
		f.Columns += entryBytes * int64(cap(col))
	}
	for i := range db.links {
		s := &db.links[i]
		f.Registries += int64(cap(s.backups)) * int64(unsafe.Sizeof(s.backups[0]))
		f.Primaries += 8 * int64(cap(s.primaries))
	}
	for _, slot := range db.lsets {
		f.LSETTable += 4 * int64(cap(slot.links))
	}
	return f
}
