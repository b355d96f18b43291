package lsdb

import (
	"slices"

	"github.com/rtcl/drtp/internal/graph"
)

// This file holds the batch read/update surface of the database. The
// routing and failure-evaluation hot paths used to call one locked
// accessor per link from inside Dijkstra cost callbacks — at ~30 µs per
// backup route that mutex traffic dominated the CPU profile. Each batch
// read below takes the lock once and fills per-link arrays the caller
// retains across calls; the per-call accessors stay for the cold paths.
//
// The whole-path operations add no transition logic of their own: each
// takes the lock once and runs the ...Locked bodies of lsdb.go over the
// path — the primary bodies link by link, undoing the links before the
// first that refuses with the inverse body, the backup bodies on the
// path's links at once — so a path call returns exactly the error, leaves
// exactly the state and counts exactly the backup ops of the per-link
// loop it replaces.

// Snapshot is a point-in-time copy of the per-link scalars the routing
// hot paths read: the backup-availability and free-bandwidth tests and
// P-LSR's ‖APLV‖₁ metric. Refresh with DB.SnapshotInto before each
// route computation; the arrays are indexed by graph.LinkID and reused
// across refreshes.
//
// A filled Snapshot is read-only to its holders: a refresh rewrites only
// the entries of links that changed since the last one, so an entry a
// holder overwrote would stay wrong. Draw down a copy instead.
type Snapshot struct {
	// AvailBackup[l] is capacity - prime (DB.AvailableForBackup), as the
	// int32 the route selector reads (lsr.Selector).
	AvailBackup []int32
	// Free[l] is capacity - prime - spare (DB.FreeBW).
	Free []int32
	// Norm[l] is ‖APLV_l‖₁ (DB.APLVNorm), as the float64 the route
	// selector's metric vector holds, so P-LSR reads it in place.
	Norm []float64

	from *DB    // the database that filled the arrays
	seq  uint64 // the change number (DB.changed) they are current to
}

// SnapshotInto fills s with the current per-link state under one lock
// acquisition and returns it. The database is unlocked when this returns,
// so the snapshot stays current only while the caller performs no
// interleaved reservations: exactly the single-writer route-then-reserve
// discipline of the Manager and the simulator.
//
// A snapshot this database filled, whose arrays still have its size and
// whose change number the log reaches back to, is patched: only the links
// logged since are rewritten, so a refresh costs what the requests in
// between changed. Any other — a zero Snapshot, another database's, one the
// log was cut past — is filled in full; every entry equals a fresh fill's
// either way, and any number of snapshots may follow one database. A
// database that does not own every link fills only its own links' entries
// and zeroes the rest.
func (db *DB) SnapshotInto(s *Snapshot) *Snapshot {
	n := db.n
	db.mu.Lock()
	defer db.mu.Unlock()
	if s.from == db && s.seq >= db.changedBase && len(s.AvailBackup) == n && len(s.Free) == n && len(s.Norm) == n {
		for _, l := range db.changed[s.seq-db.changedBase:] {
			db.at(graph.LinkID(l)).copyInto(s, int(l), db.capacity)
		}
	} else {
		s.AvailBackup = grow(s.AvailBackup, n)
		s.Free = grow(s.Free, n)
		s.Norm = grow(s.Norm, n)
		if db.owned != nil {
			clear(s.AvailBackup)
			clear(s.Free)
			clear(s.Norm)
		}
		for i := range db.links {
			db.links[i].copyInto(s, int(db.linkOf(i)), db.capacity)
		}
		s.from = db
	}
	s.seq = db.changedBase + uint64(len(db.changed))
	return s
}

// copyInto writes the link's snapshot scalars to entry i of s; capacity is
// the database's.
func (ls *linkState) copyInto(s *Snapshot, i, capacity int) {
	avail := capacity - ls.prime
	s.AvailBackup[i] = int32(avail)
	s.Free[i] = int32(avail - ls.spare)
	s.Norm[i] = float64(ls.norm)
}

// ConflictCountsInto writes, for every link l, the number of links in
// lset whose existing backups traverse l — Σ_{L_j ∈ LSET} c_{l,j}, the
// per-request conflict metric D-LSR derives from the Conflict Vectors —
// into dst and returns it (resized as needed). The Conflict Vectors are
// read by column: each LSET entry's APLV column names exactly the links
// whose count it raises, so a request costs O(links) to clear dst plus
// the columns of its own primary, under one lock acquisition. A link the
// database does not own counts zero.
func (db *DB) ConflictCountsInto(lset []graph.LinkID, dst []float64) []float64 {
	n := db.n
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	clear(dst)
	db.mu.Lock()
	defer db.mu.Unlock()
	cbits := db.cbits & 31 // below 32 already: the mask spares the shift a range check (aplv.go)
	for _, j := range lset {
		if x, ok := db.colAt(j); ok {
			for _, e := range db.cols[x] {
				dst[e>>cbits]++
			}
		}
	}
	return dst
}

// SCInto writes SC_l (spare/unitBW activation slots, DB.SC) for every
// link into dst and returns it (resized as needed). A failure sweep reads
// it once, as the baseline each evaluated failure copies, instead of
// locking per backup link touched. A link the database does not own has
// none.
func (db *DB) SCInto(dst []int) []int {
	dst = grow(dst, db.n)
	if db.owned != nil {
		clear(dst)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for i := range db.links {
		dst[db.linkOf(i)] = db.links[i].spare / db.unitBW
	}
	return dst
}

// AppendCV appends link l's Conflict Vector, the bit-vector D-LSR
// advertises in place of the full APLV, to dst in its wire form and
// returns the extended slice: (links+7)/8 bytes, bit j%8 of byte j/8 set
// iff APLV_l[j] > 0: the links the LSETs of l's registrations name, read
// from its registry in O(‖APLV_l‖₁).
func (db *DB) AppendCV(l graph.LinkID, dst []byte) []byte {
	db.mu.Lock()
	defer db.mu.Unlock()
	start := len(dst)
	size := (db.n + 7) / 8
	for i := 0; i < size; i++ {
		dst = append(dst, 0)
	}
	out := dst[start:]
	for _, h := range db.at(l).backups {
		for _, j := range db.lsets[h].links {
			out[j/8] |= 1 << uint(j%8)
		}
	}
	return dst
}

// ReservePrimaryPath reserves unit bandwidth for connection id's primary
// channel on every link of the path, in order. On the first link that
// cannot admit the reservation the earlier links are released again and
// that link's error is returned.
func (db *DB) ReservePrimaryPath(id ConnID, links []graph.LinkID) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for i, l := range links {
		if err := db.reservePrimaryLocked(id, l); err != nil {
			for _, done := range links[:i] {
				_ = db.releasePrimaryLocked(id, done) // reserved above: cannot fail
			}
			return err
		}
	}
	return nil
}

// ReleasePrimaryPath releases connection id's primary reservation on
// every link of the path. It fails on the first link without a matching
// reservation (bookkeeping corruption; preceding links stay released, as
// a per-link loop would leave them).
func (db *DB) ReleasePrimaryPath(id ConnID, links []graph.LinkID) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, l := range links {
		if err := db.releasePrimaryLocked(id, l); err != nil {
			return err
		}
	}
	return nil
}

// RegisterBackupPath registers connection id's backup channel on every
// link of the path, carrying primaryLSET exactly as per-link
// RegisterBackup packets would (the LSET is copied once, into one LSET
// table slot the links' registries share). On the first rejected link
// nothing stays registered and that link's error is returned. Each
// per-link register — and each release a per-link loop would roll back
// with — counts one backup op, matching the signalling volume of that
// loop.
func (db *DB) RegisterBackupPath(id ConnID, links, primaryLSET []graph.LinkID) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	h := db.newLSETLocked(id, slices.Clone(primaryLSET))
	defer db.unrefLSETLocked(h)
	return db.registerBackupsLocked(links, h)
}

// ReleaseBackupPath releases connection id's backup registration on
// every link of the path, with per-link ReleaseBackup semantics
// (including the backup-op count and stopping at the first link without
// a registration).
func (db *DB) ReleaseBackupPath(id ConnID, links []graph.LinkID) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.releaseBackupsLocked(id, links)
}

// PromoteBackupPath activates connection id's backup on every link of
// the path, in order (PromoteBackup per link, shared-link rule included).
// On the first link without a free activation slot the earlier links are
// restored — a converted slot goes back to the spare pool and the
// registration is re-attached with the LSET it held — and that link's
// error is returned. Every promoted link and every restored registration
// counts one backup op. Each promotion holds its LSET table slot until
// here, where nothing can be rolled back any more.
func (db *DB) PromoteBackupPath(id ConnID, links []graph.LinkID) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	done := make([]promotion, 0, len(links))
	var err error
	for _, l := range links {
		var p promotion
		if p, err = db.promoteBackupLocked(id, l); err != nil {
			break
		}
		done = append(done, p)
	}
	for _, u := range done {
		if err != nil {
			if u.converted {
				_ = db.releasePrimaryLocked(id, u.link) // converted above: cannot fail
			}
			db.attachBackupLocked([]graph.LinkID{u.link}, u.lset)
		}
		db.unrefLSETLocked(u.lset)
	}
	return err
}

// grow returns s resized to n entries, reallocating only when the
// capacity is insufficient.
func grow[T int | int32 | float64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
