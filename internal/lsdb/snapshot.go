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
// takes the lock once, runs the per-link ...Locked body of lsdb.go over
// the path in order, and on the first link that refuses undoes the links
// before it with the inverse body — so a path call returns exactly the
// error, leaves exactly the state and counts exactly the backup ops of
// the per-link loop it replaces.

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
	// AvailBackup[l] is capacity - prime (DB.AvailableForBackup).
	AvailBackup []int
	// Free[l] is capacity - prime - spare (DB.FreeBW /
	// DB.AvailableForPrimary).
	Free []int
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
// either way, and any number of snapshots may follow one database.
func (db *DB) SnapshotInto(s *Snapshot) *Snapshot {
	n := db.n
	db.mu.Lock()
	defer db.mu.Unlock()
	if s.from == db && s.seq >= db.changedBase && len(s.AvailBackup) == n && len(s.Free) == n && len(s.Norm) == n {
		for _, l := range db.changed[s.seq-db.changedBase:] {
			db.links[l].copyInto(s, int(l))
		}
	} else {
		s.AvailBackup = grow(s.AvailBackup, n)
		s.Free = grow(s.Free, n)
		s.Norm = grow(s.Norm, n)
		for i := range db.links {
			db.links[i].copyInto(s, i)
		}
		s.from = db
	}
	s.seq = db.changedBase + uint64(len(db.changed))
	return s
}

// copyInto writes the link's snapshot scalars to entry i of s.
func (ls *linkState) copyInto(s *Snapshot, i int) {
	avail := ls.capacity - ls.prime
	s.AvailBackup[i] = avail
	s.Free[i] = avail - ls.spare
	s.Norm[i] = float64(ls.norm)
}

// ConflictCountsInto writes, for every link l, the number of links in
// lset whose existing backups traverse l — Σ_{L_j ∈ LSET} c_{l,j}, the
// per-request conflict metric D-LSR derives from the Conflict Vectors —
// into dst and returns it (resized as needed). The Conflict Vectors are
// read by column: each LSET entry's posting list names exactly the links
// whose count it raises, so a request costs O(links) to clear dst plus
// the postings of its own primary, under one lock acquisition.
func (db *DB) ConflictCountsInto(lset []graph.LinkID, dst []float64) []float64 {
	n := db.n
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	clear(dst)
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, j := range lset {
		for _, l := range db.links[j].post {
			dst[l]++
		}
	}
	return dst
}

// SCInto writes SC_l (spare/unitBW activation slots, DB.SC) for every
// link into dst and returns it (resized as needed). The failure sweeps
// refresh this once per evaluated failure instead of locking per backup
// link touched.
func (db *DB) SCInto(dst []int) []int {
	dst = grow(dst, db.n)
	db.mu.Lock()
	defer db.mu.Unlock()
	for i := range db.links {
		dst[i] = db.links[i].spare / db.unitBW
	}
	return dst
}

// AppendCV appends link l's Conflict Vector in its wire form (the bytes
// of DB.CV(l).Bytes()) to dst and returns the extended slice, without
// materializing the intermediate vector.
func (db *DB) AppendCV(l graph.LinkID, dst []byte) []byte {
	db.mu.Lock()
	defer db.mu.Unlock()
	start := len(dst)
	size := (db.n + 7) / 8
	for i := 0; i < size; i++ {
		dst = append(dst, 0)
	}
	out := dst[start:]
	a := &db.links[l].aplv
	if a.dense != nil {
		for j, c := range a.dense {
			if c > 0 {
				out[j/8] |= 1 << uint(j%8)
			}
		}
		return dst
	}
	for _, e := range a.pairs {
		j := pairLink(e)
		out[j/8] |= 1 << uint(j%8)
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
// RegisterBackup packets would (the LSET is copied once and shared by
// the links' registries). On the first rejected link the earlier
// registrations are released and that link's error is returned. Each
// per-link register — and each rollback release — counts one backup op,
// matching the signalling volume of the per-link loop.
func (db *DB) RegisterBackupPath(id ConnID, links, primaryLSET []graph.LinkID) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	lset := slices.Clone(primaryLSET)
	for i, l := range links {
		if err := db.registerBackupLocked(id, l, lset); err != nil {
			for _, done := range links[:i] {
				_ = db.releaseBackupLocked(id, done) // registered above: cannot fail
			}
			return err
		}
	}
	return nil
}

// ReleaseBackupPath releases connection id's backup registration on
// every link of the path, with per-link ReleaseBackup semantics
// (including the backup-op count and stopping at the first link without
// a registration).
func (db *DB) ReleaseBackupPath(id ConnID, links []graph.LinkID) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, l := range links {
		if err := db.releaseBackupLocked(id, l); err != nil {
			return err
		}
	}
	return nil
}

// PromoteBackupPath activates connection id's backup on every link of
// the path, in order (PromoteBackup per link, shared-link rule included).
// On the first link without a free activation slot the earlier links are
// restored — a converted slot goes back to the spare pool and the
// registration is re-attached with the LSET it held — and that link's
// error is returned. Every promoted link and every restored registration
// counts one backup op.
func (db *DB) PromoteBackupPath(id ConnID, links []graph.LinkID) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	done := make([]promotion, 0, len(links))
	for _, l := range links {
		p, err := db.promoteBackupLocked(id, l)
		if err != nil {
			for _, u := range done {
				if u.converted {
					_ = db.releasePrimaryLocked(id, u.link) // converted above: cannot fail
				}
				k, _ := db.links[u.link].findBackup(id)
				db.attachBackupLocked(id, u.link, k, u.lset)
			}
			return err
		}
		done = append(done, p)
	}
	return nil
}

// grow returns s resized to n entries, reallocating only when the
// capacity is insufficient.
func grow[T int | float64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
