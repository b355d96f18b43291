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
// lock + body; the whole-path methods (snapshot.go) are lock + a loop
// over the same body + first-failure rollback. The shared-link activation
// rule (a link that already carries the connection's primary keeps that
// reservation and only drops the backup registration) lives in the
// promote body, so the simulator's Manager and the router's hop handler
// both get it by calling PromoteBackupPath / PromoteBackup.
package lsdb

import (
	"fmt"
	"slices"
	"sync"

	"github.com/rtcl/drtp/internal/bitvec"
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
type linkState struct {
	capacity int
	prime    int // bandwidth reserved by primary channels
	spare    int // bandwidth reserved for (multiplexed) backups
	aplv     aplvCounters
	norm     int // ‖APLV‖₁, maintained incrementally
	maxElem  int // max_j APLV[j], maintained incrementally
	// backups is the backup registry: every backup channel registered on
	// this link with the LSET of its primary (carried in backup-register
	// packets), connection IDs ascending. IDs grow with time, so a
	// registration mostly appends (findBackup).
	backups []backupReg
	// primaries lists the DR-connections with a primary channel on this
	// link, in no particular order. A link holds at most capacity/unitBW of
	// them, so membership is a short scan.
	primaries []ConnID
	// post is this link's column of the Conflict Vectors as a posting
	// list: the links l with APLV_l[this link] > 0, each once, in no
	// particular order (only counts are read from it). It is maintained
	// where a counter crosses zero — attachBackupLocked and
	// detachBackupLocked — so every transition keeps it.
	//
	// backups, the APLV pair list, primaries and post all give capacity
	// back as they empty (shrink): a link holds what it carries now.
	post []int32
}

// backupReg is one entry of a link's backup registry.
type backupReg struct {
	id   ConnID
	lset []graph.LinkID // shared by every link of the backup's path
}

// findBackup returns the position of id in the link's backup registry, or
// the position it would be inserted at, and whether it is registered. IDs
// grow with time, so a new registration mostly lands past the last entry:
// that is checked first, before the binary search.
func (s *linkState) findBackup(id ConnID) (int, bool) {
	b := s.backups
	if len(b) == 0 || b[len(b)-1].id < id {
		return len(b), false
	}
	lo, hi := 0, len(b)-1 // b[hi].id >= id
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, b[lo].id == id
}

// DB is the aggregate link-state database over all links of a network. In
// a deployment each router owns the records for its outgoing links and
// advertises summaries; the simulator keeps them in one place, mirroring
// the paper's assumption that link-state information is disseminated.
type DB struct {
	g      *graph.Graph
	unitBW int
	mode   Mode
	n      int // total links; immutable after construction

	mu sync.Mutex
	// links holds the per-link records, indexed by graph.LinkID;
	// guarded by mu.
	links []linkState

	// aplvDenseAt is the pair-list length past which a link's APLV is
	// up-converted to the dense array (aplvDenseThreshold). Tests in this
	// package pin it before the first registration: 0 makes every link
	// dense on first use, negative never up-converts.
	aplvDenseAt int

	// sortedLSET is the scratch the APLV folds read an LSET from, sorted,
	// and sortedFrom the database-owned LSET it was sorted from
	// (sortedLSETLocked); addedPairs is foldInLocked's scratch of the pairs
	// a row lacks; guarded by mu.
	sortedLSET, sortedFrom []graph.LinkID
	addedPairs             []uint64

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
	// being change number changedBase+k. It is cut once it holds n entries
	// (a reader that far behind refills in full as cheaply); guarded by mu.
	changed     []int32
	changedBase uint64
}

// New creates a database for graph g where every link has the given
// capacity and every DR-connection reserves unitBW, with backup
// multiplexing enabled.
func New(g *graph.Graph, capacity, unitBW int) (*DB, error) {
	return NewWithMode(g, capacity, unitBW, Multiplexed)
}

// NewWithMode is New with an explicit spare-sizing mode.
func NewWithMode(g *graph.Graph, capacity, unitBW int, mode Mode) (*DB, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("lsdb: capacity must be positive, got %d", capacity)
	}
	if unitBW <= 0 || unitBW > capacity {
		return nil, fmt.Errorf("lsdb: unit bandwidth %d out of range (0,%d]", unitBW, capacity)
	}
	if mode != Multiplexed && mode != Dedicated {
		return nil, fmt.Errorf("lsdb: invalid mode %d", int(mode))
	}
	n := g.NumLinks()
	db := &DB{g: g, unitBW: unitBW, mode: mode, n: n, aplvDenseAt: aplvDenseThreshold(n)}
	db.links = make([]linkState, n)
	for i := range db.links {
		db.links[i].capacity = capacity
	}
	return db, nil
}

// Graph returns the underlying topology.
func (db *DB) Graph() *graph.Graph { return db.g }

// UnitBW returns the bandwidth each DR-connection reserves.
func (db *DB) UnitBW() int { return db.unitBW }

// NumLinks returns the number of unidirectional links tracked.
func (db *DB) NumLinks() int { return db.n }

// Capacity returns the total bandwidth of link l.
func (db *DB) Capacity(l graph.LinkID) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.links[l].capacity
}

// PrimeBW returns the bandwidth reserved by primary channels on link l.
func (db *DB) PrimeBW(l graph.LinkID) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.links[l].prime
}

// SpareBW returns the bandwidth reserved for backup channels on link l.
func (db *DB) SpareBW(l graph.LinkID) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.links[l].spare
}

// FreeBW returns the unallocated bandwidth on link l
// (capacity - prime - spare).
func (db *DB) FreeBW(l graph.LinkID) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := &db.links[l]
	return s.capacity - s.prime - s.spare
}

// AvailableForPrimary returns the bandwidth a new primary channel could
// reserve on link l. Primaries may not displace spare resources.
func (db *DB) AvailableForPrimary(l graph.LinkID) int { return db.FreeBW(l) }

// AvailableForBackup returns the paper's "available bandwidth" for backup
// routing: unallocated bandwidth plus the spare bandwidth already shared by
// backups (capacity - prime).
func (db *DB) AvailableForBackup(l graph.LinkID) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := &db.links[l]
	return s.capacity - s.prime
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
	s := &db.links[l]
	if free := s.capacity - s.prime - s.spare; free < db.unitBW {
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
	if len(db.changed) >= db.n {
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
	s := &db.links[l]
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
// Registration fails when the link cannot hold even one activation of
// this backup, i.e. capacity - prime < unit bandwidth, or when primaryLSET
// names a link outside the network.
func (db *DB) RegisterBackup(id ConnID, l graph.LinkID, primaryLSET []graph.LinkID) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.registerBackupLocked(id, l, slices.Clone(primaryLSET))
}

// registerBackupLocked is the register transition; the caller must hold
// db.mu. lset is stored as given — the caller passes a copy the database
// may keep (one per call, shared by all links of a path). An LSET arrives
// off the wire, so its entries are checked before anything is mutated.
// The registry slot is found once, by the duplicate check.
func (db *DB) registerBackupLocked(id ConnID, l graph.LinkID, lset []graph.LinkID) error {
	s := &db.links[l]
	if avail := s.capacity - s.prime; avail < db.unitBW {
		return &ErrInsufficientBandwidth{Link: l, Need: db.unitBW, Have: avail}
	}
	if db.mode == Dedicated {
		// No overbooking: the spare pool must grow by a full unit.
		if free := s.capacity - s.prime - s.spare; free < db.unitBW {
			return &ErrInsufficientBandwidth{Link: l, Need: db.unitBW, Have: free}
		}
	}
	k, dup := s.findBackup(id)
	if dup {
		return fmt.Errorf("lsdb: connection %d already has a backup on link %d", id, l)
	}
	if _, err := db.sortedLSETLocked(lset); err != nil {
		return err
	}
	db.attachBackupLocked(id, l, k, lset)
	return nil
}

// attachBackupLocked stores a backup registration at position k of link
// l's registry — the insertion point findBackup returned — folds its LSET
// into the APLV in one pass (foldInLocked: l enters the posting list of
// every primary link whose counter leaves zero) and resizes spare; it
// counts one backup op. lset is the registry's own copy, already checked:
// the exported callers clone before the lock, rollback re-attaches what the
// registry held. The caller must hold db.mu.
func (db *DB) attachBackupLocked(id ConnID, l graph.LinkID, k int, lset []graph.LinkID) {
	db.backupOps++
	s := &db.links[l]
	s.backups = slices.Insert(s.backups, k, backupReg{id: id, lset: lset})
	sorted, _ := db.sortedLSETLocked(lset) // checked by the caller
	db.foldInLocked(l, sorted)
	db.resizeSpareLocked(s)
	db.touchLocked(l)
}

// appendPosting appends l to a posting list, growing a full list by a
// quarter, and by at least 4, where append would double it: a 2 000-node
// network spreads some 100 000 postings over 6 000 lists, and the slack
// doubling leaves in them is 3 % of the simulator's live heap, while a
// list growing one entry at a time from empty would reallocate at every
// one of its first entries.
func appendPosting(post []int32, l int32) []int32 {
	if len(post) == cap(post) {
		grown := make([]int32, len(post), len(post)+max(len(post)/4, 4))
		copy(grown, post)
		post = grown
	}
	return append(post, l)
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
// have, or lower. Growth doubles (a quarter for postings) and shrinking
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

// keepOne and keepRoute are the capacities shrink leaves a row: the room
// one request needs on it, so a register/release pair on a lightly loaded
// link allocates nothing. A request adds one entry to a link's registry
// or primaries, but up to a route's links to a pair list (its LSET) or a
// posting list (its backup path) — and the quarter rule leaves a row of L
// entries only 2L of room.
const (
	keepOne   = 3
	keepRoute = 16
)

// detachBackupLocked reverses attachBackupLocked for the registration at
// position k of link l's registry: its LSET, sorted once for all links of
// a path that share it, is folded out of the APLV in one pass
// (foldOutLocked: l leaves the posting list of every primary link whose
// counter returns to zero, zeroed pairs are compacted out, the maximum is
// recomputed only when a counter at it decreased); it counts one backup
// op. The caller must hold db.mu.
func (db *DB) detachBackupLocked(l graph.LinkID, k int) {
	db.backupOps++
	s := &db.links[l]
	sorted, _ := db.sortedLSETLocked(s.backups[k].lset) // checked at registration
	s.backups = shrink(slices.Delete(s.backups, k, k+1), keepOne)
	db.foldOutLocked(l, sorted)
	db.resizeSpareLocked(s)
	db.touchLocked(l)
}

// ReleaseBackup removes connection id's backup channel from link l,
// reversing the APLV updates using the LSET stored at registration and
// shrinking spare resources to the new requirement.
func (db *DB) ReleaseBackup(id ConnID, l graph.LinkID) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.releaseBackupLocked(id, l)
}

// releaseBackupLocked is the release-backup transition; the caller must
// hold db.mu.
func (db *DB) releaseBackupLocked(id ConnID, l graph.LinkID) error {
	k, ok := db.links[l].findBackup(id)
	if !ok {
		return fmt.Errorf("lsdb: connection %d has no backup on link %d", id, l)
	}
	db.detachBackupLocked(l, k)
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
	_, err := db.promoteBackupLocked(id, l)
	return err
}

// promotion is what promoteBackupLocked did to one link, enough to undo it.
type promotion struct {
	link      graph.LinkID
	lset      []graph.LinkID // the registration's stored LSET
	converted bool           // false: the link already held id's primary
}

// promoteBackupLocked is the promote transition; the caller must hold
// db.mu.
func (db *DB) promoteBackupLocked(id ConnID, l graph.LinkID) (promotion, error) {
	s := &db.links[l]
	k, ok := s.findBackup(id)
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
	lset := s.backups[k].lset
	db.detachBackupLocked(l, k)
	return promotion{link: l, lset: lset, converted: !shared}, nil
}

// resizeSpareLocked sets a link's spare bandwidth to the mode's requirement:
// max_j APLV[j] activations under multiplexing, or one unit per backup
// under dedicated reservation; capped at what fits beside the primaries.
// The caller must hold db.mu.
func (db *DB) resizeSpareLocked(s *linkState) {
	required := s.maxElem * db.unitBW
	if db.mode == Dedicated {
		required = len(s.backups) * db.unitBW
	}
	if room := s.capacity - s.prime; required > room {
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
	return int(db.links[l].aplv.at(int(j)))
}

// APLV returns a copy of link l's APLV.
func (db *DB) APLV(l graph.LinkID) []int {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]int, db.n)
	a := &db.links[l].aplv
	if a.dense != nil {
		for i, v := range a.dense {
			out[i] = int(v)
		}
		return out
	}
	for _, e := range a.pairs {
		out[pairLink(e)] = pairCount(e)
	}
	return out
}

// APLVNorm returns ‖APLV_l‖₁, the scalar advertised by P-LSR.
func (db *DB) APLVNorm(l graph.LinkID) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.links[l].norm
}

// APLVMax returns max_j APLV_l[j], which sizes the spare resources.
func (db *DB) APLVMax(l graph.LinkID) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.links[l].maxElem
}

// CVBit returns the Conflict Vector bit c_{l,j}: true iff at least one
// primary channel through link j has its backup on link l.
func (db *DB) CVBit(l, j graph.LinkID) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.links[l].aplv.at(int(j)) > 0
}

// CV materializes link l's Conflict Vector, the bit-vector D-LSR
// advertises in place of the full APLV, from its wire form (AppendCV).
// The routing hot path reads conflicts through ConflictCountsInto and
// adverts are built by AppendCV, neither of which materializes one.
func (db *DB) CV(l graph.LinkID) *bitvec.Vector {
	return bitvec.FromBytes(db.n, db.AppendCV(l, nil))
}

// SC returns the number of backups on link l that can be activated
// simultaneously from the reserved spare resources (paper's SC_i).
func (db *DB) SC(l graph.LinkID) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.scLocked(l)
}

// scLocked is SC without locking; callers must hold db.mu.
func (db *DB) scLocked(l graph.LinkID) int { return db.links[l].spare / db.unitBW }

// HasDeficit reports whether link l multiplexes conflicting backups beyond
// its spare resources, i.e. some single link failure could require more
// activations than SC_l allows.
func (db *DB) HasDeficit(l graph.LinkID) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.links[l].maxElem > db.scLocked(l)
}

// BackupsOn returns the connection IDs with backups registered on link
// l, ascending.
func (db *DB) BackupsOn(l graph.LinkID) []ConnID {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := &db.links[l]
	out := make([]ConnID, len(s.backups))
	for k, b := range s.backups {
		out[k] = b.id
	}
	return out
}

// NumBackupsOn returns the number of backups registered on link l.
func (db *DB) NumBackupsOn(l graph.LinkID) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.links[l].backups)
}

// PrimariesOn returns the number of primary channels on link l.
func (db *DB) PrimariesOn(l graph.LinkID) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.links[l].primaries)
}

// AppendPrimariesOn appends to dst the IDs of the connections with a
// primary channel on link l, each once, in no particular order: what a
// failure of l touches, without a scan over the connections.
func (db *DB) AppendPrimariesOn(dst []ConnID, l graph.LinkID) []ConnID {
	db.mu.Lock()
	defer db.mu.Unlock()
	return append(dst, db.links[l].primaries...)
}

// HasPrimary reports whether connection id's primary traverses link l.
func (db *DB) HasPrimary(id ConnID, l graph.LinkID) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return slices.Contains(db.links[l].primaries, id)
}

// HasBackup reports whether connection id's backup traverses link l.
func (db *DB) HasBackup(id ConnID, l graph.LinkID) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	_, ok := db.links[l].findBackup(id)
	return ok
}

// sumLinks adds up one scalar of every link record under the lock.
func (db *DB) sumLinks(field func(*linkState) int) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	total := 0
	for i := range db.links {
		total += field(&db.links[i])
	}
	return total
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

// TotalCapacity returns the sum of capacity over all links.
func (db *DB) TotalCapacity() int {
	return db.sumLinks(func(s *linkState) int { return s.capacity })
}

// APLVBytes returns the bytes of APLV counter storage currently held
// across all links: 4 bytes per dense slot, 8 per pair-list entry. This
// is the quantity the pair lists exist to shrink — dense arrays on every
// link would pin it at links² × 4 bytes regardless of load, while pair
// lists grow with the conflicts that actually exist — and the scale
// experiment reports it per accepted connection.
func (db *DB) APLVBytes() int64 {
	return int64(db.sumLinks(func(s *linkState) int {
		if s.aplv.dense != nil {
			return 4 * len(s.aplv.dense)
		}
		return 8 * len(s.aplv.pairs)
	}))
}
