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
// The database is sharded by link range: each shard guards a contiguous
// slice of link records with its own mutex, so concurrent workloads on
// disjoint parts of a large topology do not serialize on one lock. Every
// multi-shard operation — the whole-path batch surface and the aggregate
// scans — acquires shard locks in ascending shard order, which keeps the
// lock graph acyclic. Single-call snapshots and totals lock shards one at
// a time, so under concurrent mutation they are coherent per shard rather
// than globally — the single-threaded route-then-reserve discipline of
// the Manager and simulator is unaffected, and the concurrent stress tier
// checks exactly the per-link invariants that remain global.
package lsdb

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

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
	// backups maps each backup channel registered on this link to the
	// LSET of its primary (carried in backup-register packets).
	backups map[ConnID][]graph.LinkID
	// primaries counts primary channels of DR-connections on this link.
	primaries map[ConnID]struct{}
}

// dbShard guards one contiguous range of link records.
type dbShard struct {
	mu sync.Mutex
	// links holds this shard's per-link records; guarded by mu.
	links []linkState
	_     [40]byte // pad to a cache line so neighbor shards don't false-share
}

const (
	// defaultShardSpan is the number of links per shard before the 64-
	// shard cap widens it.
	defaultShardSpan = 1024
	// maxShards bounds the shard count so multi-shard operations can
	// carry their lock set as one uint64 mask.
	maxShards = 64
)

// DB is the aggregate link-state database over all links of a network. In
// a deployment each router owns the records for its outgoing links and
// advertises summaries; the simulator keeps them in one place, mirroring
// the paper's assumption that link-state information is disseminated.
type DB struct {
	g      *graph.Graph
	unitBW int
	mode   Mode
	n      int // total links; immutable after construction

	shardShift uint
	shardMask  int
	shards     []dbShard

	// aplvDenseAt is the pair-list length past which a link's APLV is
	// up-converted to the dense array (aplvDenseThreshold). Tests in this
	// package pin it before the first registration: 0 makes every link
	// dense on first use, negative never up-converts.
	aplvDenseAt int

	// backupOps counts RegisterBackup + ReleaseBackup calls: each is one
	// per-link update driven by a backup-register/release packet, the
	// signalling volume of the link-state schemes.
	backupOps atomic.Int64

	shardCountHint int
}

// Option configures a DB at construction.
type Option func(*DB)

// WithShardCount overrides the automatic shard sizing with (about) count
// shards, clamped to [1, 64] and rounded so each shard spans a power of
// two links. Tests use it to force heavy shard crossings on small
// topologies.
func WithShardCount(count int) Option {
	return func(db *DB) { db.shardCountHint = count }
}

// New creates a database for graph g where every link has the given
// capacity and every DR-connection reserves unitBW, with backup
// multiplexing enabled.
func New(g *graph.Graph, capacity, unitBW int, opts ...Option) (*DB, error) {
	return NewWithMode(g, capacity, unitBW, Multiplexed, opts...)
}

// NewWithMode is New with an explicit spare-sizing mode.
func NewWithMode(g *graph.Graph, capacity, unitBW int, mode Mode, opts ...Option) (*DB, error) {
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
	for _, opt := range opts {
		opt(db)
	}
	db.layoutShards()
	for si := range db.shards {
		sh := &db.shards[si]
		for i := range sh.links {
			sh.links[i] = linkState{
				capacity:  capacity,
				backups:   make(map[ConnID][]graph.LinkID),
				primaries: make(map[ConnID]struct{}),
			}
		}
	}
	return db, nil
}

// layoutShards picks the shard span (a power of two) and allocates the
// shard array: defaultShardSpan-sized shards, widened until the count
// fits maxShards, or sized to the WithShardCount hint.
func (db *DB) layoutShards() {
	span := defaultShardSpan
	if hint := db.shardCountHint; hint > 0 {
		if hint > maxShards {
			hint = maxShards
		}
		span = 1
		for span*hint < db.n {
			span *= 2
		}
	}
	for (db.n+span-1)/span > maxShards {
		span *= 2
	}
	db.shardShift = uint(bits.TrailingZeros(uint(span)))
	db.shardMask = span - 1
	count := (db.n + span - 1) / span
	if count == 0 {
		count = 1
	}
	db.shards = make([]dbShard, count)
	for si := range db.shards {
		lo := si * span
		hi := lo + span
		if hi > db.n {
			hi = db.n
		}
		db.shards[si].links = make([]linkState, hi-lo)
	}
}

// shardFor returns the shard owning link l.
func (db *DB) shardFor(l graph.LinkID) *dbShard { return &db.shards[int(l)>>db.shardShift] }

// lsLocked returns link l's record; the caller must hold l's shard lock.
func (db *DB) lsLocked(l graph.LinkID) *linkState {
	return &db.shards[int(l)>>db.shardShift].links[int(l)&db.shardMask]
}

// Graph returns the underlying topology.
func (db *DB) Graph() *graph.Graph { return db.g }

// UnitBW returns the bandwidth each DR-connection reserves.
func (db *DB) UnitBW() int { return db.unitBW }

// NumLinks returns the number of unidirectional links tracked.
func (db *DB) NumLinks() int { return db.n }

// NumShards returns the number of link-range shards.
func (db *DB) NumShards() int { return len(db.shards) }

// Capacity returns the total bandwidth of link l.
func (db *DB) Capacity(l graph.LinkID) int {
	sh := db.shardFor(l)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return db.lsLocked(l).capacity
}

// PrimeBW returns the bandwidth reserved by primary channels on link l.
func (db *DB) PrimeBW(l graph.LinkID) int {
	sh := db.shardFor(l)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return db.lsLocked(l).prime
}

// SpareBW returns the bandwidth reserved for backup channels on link l.
func (db *DB) SpareBW(l graph.LinkID) int {
	sh := db.shardFor(l)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return db.lsLocked(l).spare
}

// FreeBW returns the unallocated bandwidth on link l
// (capacity - prime - spare).
func (db *DB) FreeBW(l graph.LinkID) int {
	sh := db.shardFor(l)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := db.lsLocked(l)
	return s.capacity - s.prime - s.spare
}

// AvailableForPrimary returns the bandwidth a new primary channel could
// reserve on link l. Primaries may not displace spare resources.
func (db *DB) AvailableForPrimary(l graph.LinkID) int { return db.FreeBW(l) }

// AvailableForBackup returns the paper's "available bandwidth" for backup
// routing: unallocated bandwidth plus the spare bandwidth already shared by
// backups (capacity - prime).
func (db *DB) AvailableForBackup(l graph.LinkID) int {
	sh := db.shardFor(l)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := db.lsLocked(l)
	return s.capacity - s.prime
}

// ReservePrimary reserves unit bandwidth for connection id's primary
// channel on link l.
func (db *DB) ReservePrimary(id ConnID, l graph.LinkID) error {
	sh := db.shardFor(l)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := db.lsLocked(l)
	if free := s.capacity - s.prime - s.spare; free < db.unitBW {
		return &ErrInsufficientBandwidth{Link: l, Need: db.unitBW, Have: free}
	}
	if _, dup := s.primaries[id]; dup {
		return fmt.Errorf("lsdb: connection %d already has a primary on link %d", id, l)
	}
	s.prime += db.unitBW
	s.primaries[id] = struct{}{}
	return nil
}

// ReleasePrimary releases connection id's primary reservation on link l.
func (db *DB) ReleasePrimary(id ConnID, l graph.LinkID) error {
	sh := db.shardFor(l)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := db.lsLocked(l)
	if _, ok := s.primaries[id]; !ok {
		return fmt.Errorf("lsdb: connection %d has no primary on link %d", id, l)
	}
	delete(s.primaries, id)
	s.prime -= db.unitBW
	return nil
}

// RegisterBackup registers connection id's backup channel on link l. The
// register packet carries primaryLSET, the links of the corresponding
// primary route, which updates this link's APLV. Spare resources are grown
// to cover max_j APLV[j] simultaneous activations when free bandwidth
// allows; if it does not, the backup is multiplexed on the existing spare
// resources anyway (paper §5, choice 2) and the link runs a deficit.
//
// Registration fails only when the link cannot hold even one activation of
// this backup, i.e. capacity - prime < unit bandwidth.
func (db *DB) RegisterBackup(id ConnID, l graph.LinkID, primaryLSET []graph.LinkID) error {
	sh := db.shardFor(l)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := db.lsLocked(l)
	if avail := s.capacity - s.prime; avail < db.unitBW {
		return &ErrInsufficientBandwidth{Link: l, Need: db.unitBW, Have: avail}
	}
	if db.mode == Dedicated {
		// No overbooking: the spare pool must grow by a full unit.
		if free := s.capacity - s.prime - s.spare; free < db.unitBW {
			return &ErrInsufficientBandwidth{Link: l, Need: db.unitBW, Have: free}
		}
	}
	if _, dup := s.backups[id]; dup {
		return fmt.Errorf("lsdb: connection %d already has a backup on link %d", id, l)
	}
	db.backupOps.Add(1)
	lset := make([]graph.LinkID, len(primaryLSET))
	copy(lset, primaryLSET)
	s.backups[id] = lset
	db.applyLSETLocked(s, lset)
	db.resizeSpareLocked(s)
	return nil
}

// applyLSETLocked adds one backup's LSET contribution to s's APLV; the
// caller must hold s's shard lock.
func (db *DB) applyLSETLocked(s *linkState, lset []graph.LinkID) {
	for _, pl := range lset {
		v := int(s.aplv.inc(int(pl), db.aplvDenseAt, db.n))
		s.norm++
		if v > s.maxElem {
			s.maxElem = v
		}
	}
}

// ReleaseBackup removes connection id's backup channel from link l,
// reversing the APLV updates using the LSET stored at registration and
// shrinking spare resources to the new requirement.
func (db *DB) ReleaseBackup(id ConnID, l graph.LinkID) error {
	sh := db.shardFor(l)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := db.lsLocked(l)
	if _, ok := s.backups[id]; !ok {
		return fmt.Errorf("lsdb: connection %d has no backup on link %d", id, l)
	}
	db.releaseBackupLocked(id, s)
	return nil
}

// PromoteBackup activates connection id's backup on link l: one unit of
// the spare pool is converted into primary bandwidth and the backup
// registration is removed (its APLV contribution disappears with it).
// It fails with ErrInsufficientBandwidth when the spare pool has no free
// activation slot — the contention among conflicting backups multiplexed
// on the same spare resources.
func (db *DB) PromoteBackup(id ConnID, l graph.LinkID) error {
	sh := db.shardFor(l)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := db.lsLocked(l)
	lset, ok := s.backups[id]
	if !ok {
		return fmt.Errorf("lsdb: connection %d has no backup on link %d", id, l)
	}
	if _, dup := s.primaries[id]; dup {
		return fmt.Errorf("lsdb: connection %d already has a primary on link %d", id, l)
	}
	if s.spare < db.unitBW {
		return &ErrInsufficientBandwidth{Link: l, Need: db.unitBW, Have: s.spare}
	}
	// Consume one activation slot: the promoted channel's bandwidth moves
	// from the shared spare pool into primary bandwidth.
	s.prime += db.unitBW
	s.primaries[id] = struct{}{}

	// Drop the backup registration and its APLV contribution.
	db.backupOps.Add(1)
	delete(s.backups, id)
	db.removeLSETLocked(s, lset)
	db.resizeSpareLocked(s)
	return nil
}

// removeLSETLocked reverses applyLSETLocked, recomputing the maximum only
// when a counter at the maximum decreased; the caller must hold s's shard
// lock.
func (db *DB) removeLSETLocked(s *linkState, lset []graph.LinkID) {
	recompute := false
	for _, pl := range lset {
		if int(s.aplv.at(int(pl))) == s.maxElem {
			recompute = true
		}
		s.aplv.dec(int(pl))
		s.norm--
	}
	if recompute {
		s.maxElem = s.aplv.maxVal()
	}
}

// resizeSpareLocked sets a link's spare bandwidth to the mode's requirement:
// max_j APLV[j] activations under multiplexing, or one unit per backup
// under dedicated reservation; capped at what fits beside the primaries.
// The caller must hold the link's shard lock.
func (db *DB) resizeSpareLocked(s *linkState) {
	required := s.maxElem * db.unitBW
	if db.mode == Dedicated {
		required = len(s.backups) * db.unitBW
	}
	if room := s.capacity - s.prime; required > room {
		required = room
	}
	s.spare = required
}

// Mode returns the spare-sizing mode.
func (db *DB) Mode() Mode { return db.mode }

// BackupOps returns the cumulative number of backup register/release
// per-link updates processed by this database.
func (db *DB) BackupOps() int64 { return db.backupOps.Load() }

// APLVAt returns APLV_l[j].
func (db *DB) APLVAt(l, j graph.LinkID) int {
	sh := db.shardFor(l)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return int(db.lsLocked(l).aplv.at(int(j)))
}

// APLV returns a copy of link l's APLV.
func (db *DB) APLV(l graph.LinkID) []int {
	sh := db.shardFor(l)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]int, db.n)
	a := &db.lsLocked(l).aplv
	if a.dense != nil {
		for i, v := range a.dense {
			out[i] = int(v)
		}
		return out
	}
	for k, j := range a.idx {
		out[j] = int(a.val[k])
	}
	return out
}

// APLVNorm returns ‖APLV_l‖₁, the scalar advertised by P-LSR.
func (db *DB) APLVNorm(l graph.LinkID) int {
	sh := db.shardFor(l)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return db.lsLocked(l).norm
}

// APLVMax returns max_j APLV_l[j], which sizes the spare resources.
func (db *DB) APLVMax(l graph.LinkID) int {
	sh := db.shardFor(l)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return db.lsLocked(l).maxElem
}

// CVBit returns the Conflict Vector bit c_{l,j}: true iff at least one
// primary channel through link j has its backup on link l.
func (db *DB) CVBit(l, j graph.LinkID) bool {
	sh := db.shardFor(l)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return db.lsLocked(l).aplv.at(int(j)) > 0
}

// CV materializes link l's Conflict Vector, the bit-vector D-LSR
// advertises in place of the full APLV: links/8 bytes per call. The
// routing hot path reads conflicts through ConflictCountsInto and
// adverts are built by AppendCV, neither of which materializes one.
func (db *DB) CV(l graph.LinkID) *bitvec.Vector {
	sh := db.shardFor(l)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v := bitvec.New(db.n)
	a := &db.lsLocked(l).aplv
	if a.dense != nil {
		for j, c := range a.dense {
			if c > 0 {
				v.Set(j)
			}
		}
		return v
	}
	for _, j := range a.idx {
		v.Set(int(j))
	}
	return v
}

// SC returns the number of backups on link l that can be activated
// simultaneously from the reserved spare resources (paper's SC_i).
func (db *DB) SC(l graph.LinkID) int {
	sh := db.shardFor(l)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return db.scLocked(l)
}

// scLocked is SC without locking; callers must hold l's shard lock.
func (db *DB) scLocked(l graph.LinkID) int { return db.lsLocked(l).spare / db.unitBW }

// HasDeficit reports whether link l multiplexes conflicting backups beyond
// its spare resources, i.e. some single link failure could require more
// activations than SC_l allows.
func (db *DB) HasDeficit(l graph.LinkID) bool {
	sh := db.shardFor(l)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return db.lsLocked(l).maxElem > db.scLocked(l)
}

// BackupsOn returns the connection IDs with backups registered on link l.
func (db *DB) BackupsOn(l graph.LinkID) []ConnID {
	sh := db.shardFor(l)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := db.lsLocked(l)
	out := make([]ConnID, 0, len(s.backups))
	for id := range s.backups {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumBackupsOn returns the number of backups registered on link l.
func (db *DB) NumBackupsOn(l graph.LinkID) int {
	sh := db.shardFor(l)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(db.lsLocked(l).backups)
}

// PrimariesOn returns the number of primary channels on link l.
func (db *DB) PrimariesOn(l graph.LinkID) int {
	sh := db.shardFor(l)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(db.lsLocked(l).primaries)
}

// HasPrimary reports whether connection id's primary traverses link l.
func (db *DB) HasPrimary(id ConnID, l graph.LinkID) bool {
	sh := db.shardFor(l)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := db.lsLocked(l).primaries[id]
	return ok
}

// HasBackup reports whether connection id's backup traverses link l.
func (db *DB) HasBackup(id ConnID, l graph.LinkID) bool {
	sh := db.shardFor(l)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := db.lsLocked(l).backups[id]
	return ok
}

// TotalPrimeBW returns the sum of primary bandwidth over all links, a
// measure of carried load.
func (db *DB) TotalPrimeBW() int {
	total := 0
	for si := range db.shards {
		sh := &db.shards[si]
		sh.mu.Lock()
		for i := range sh.links {
			total += sh.links[i].prime
		}
		sh.mu.Unlock()
	}
	return total
}

// TotalSpareBW returns the sum of spare bandwidth over all links, the
// paper's fault-tolerance resource overhead.
func (db *DB) TotalSpareBW() int {
	total := 0
	for si := range db.shards {
		sh := &db.shards[si]
		sh.mu.Lock()
		for i := range sh.links {
			total += sh.links[i].spare
		}
		sh.mu.Unlock()
	}
	return total
}

// TotalCapacity returns the sum of capacity over all links.
func (db *DB) TotalCapacity() int {
	total := 0
	for si := range db.shards {
		sh := &db.shards[si]
		sh.mu.Lock()
		for i := range sh.links {
			total += sh.links[i].capacity
		}
		sh.mu.Unlock()
	}
	return total
}

// APLVBytes returns the bytes of APLV counter storage currently held
// across all links: 4 bytes per dense slot, 8 per pair-list entry. This
// is the quantity the pair lists exist to shrink — dense arrays on every
// link would pin it at links² × 4 bytes regardless of load, while pair
// lists grow with the conflicts that actually exist — and the scale
// experiment reports it per accepted connection.
func (db *DB) APLVBytes() int64 {
	var total int64
	for si := range db.shards {
		sh := &db.shards[si]
		sh.mu.Lock()
		for i := range sh.links {
			a := &sh.links[i].aplv
			if a.dense != nil {
				total += 4 * int64(len(a.dense))
			} else {
				total += 8 * int64(len(a.idx))
			}
		}
		sh.mu.Unlock()
	}
	return total
}
