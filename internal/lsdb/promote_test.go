package lsdb

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/rtcl/drtp/internal/graph"
)

func TestPromoteBackupMovesSpareToPrime(t *testing.T) {
	db := newTestDB(t, 10)
	l := graph.LinkID(5)
	if err := db.RegisterBackup(1, l, lset(2, 3)); err != nil {
		t.Fatal(err)
	}
	if db.SpareBW(l) != 1 {
		t.Fatalf("spare = %d", db.SpareBW(l))
	}
	if err := db.PromoteBackup(1, l); err != nil {
		t.Fatal(err)
	}
	if db.PrimeBW(l) != 1 || db.SpareBW(l) != 0 {
		t.Fatalf("prime=%d spare=%d after promote", db.PrimeBW(l), db.SpareBW(l))
	}
	if !db.HasPrimary(1, l) || db.HasBackup(1, l) {
		t.Fatal("registries not updated")
	}
	if db.APLVNorm(l) != 0 {
		t.Fatalf("APLV norm = %d, registration should be gone", db.APLVNorm(l))
	}
}

func TestPromoteBackupContention(t *testing.T) {
	// Capacity 2, one unit of primaries: room for one spare unit shared
	// by two conflicting backups. The first promotion takes the slot;
	// the second must fail.
	db := newTestDB(t, 2)
	l := graph.LinkID(5)
	if err := db.ReservePrimary(100, l); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterBackup(1, l, lset(2)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterBackup(2, l, lset(2)); err != nil {
		t.Fatal(err)
	}
	if !db.HasDeficit(l) {
		t.Fatal("expected deficit before promotion")
	}
	if err := db.PromoteBackup(1, l); err != nil {
		t.Fatal(err)
	}
	var bwErr *ErrInsufficientBandwidth
	if err := db.PromoteBackup(2, l); !errors.As(err, &bwErr) {
		t.Fatalf("second promotion: %v", err)
	}
	// The losing backup is still registered (it may activate elsewhere
	// after the conflicting primary terminates).
	if !db.HasBackup(2, l) {
		t.Fatal("losing backup lost its registration")
	}
}

func TestPromoteBackupErrors(t *testing.T) {
	db := newTestDB(t, 10)
	l := graph.LinkID(5)
	if err := db.PromoteBackup(1, l); err == nil {
		t.Fatal("promotion without registration accepted")
	}
	if err := db.RegisterBackup(1, l, lset(2)); err != nil {
		t.Fatal(err)
	}
	if err := db.PromoteBackup(1, l); err != nil {
		t.Fatal(err)
	}
	// The registration is consumed: a second activation of the same
	// backup must refuse rather than double-book.
	if err := db.PromoteBackup(1, l); err == nil {
		t.Fatal("second promotion of a consumed registration accepted")
	}
	if db.PrimeBW(l) != 1 {
		t.Fatalf("prime = %d after one promotion", db.PrimeBW(l))
	}
}

// TestPromoteBackupSharedLink pins the shared-link activation rule in
// its one home: a link that already carries the connection's primary
// keeps that single reservation, takes no spare slot, and only drops the
// backup registration.
func TestPromoteBackupSharedLink(t *testing.T) {
	db := newTestDB(t, 2)
	l := graph.LinkID(5)
	if err := db.ReservePrimary(1, l); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterBackup(1, l, lset(2)); err != nil {
		t.Fatal(err)
	}
	// A conflicting backup takes the only activation slot first: the
	// shared-link promotion needs none and must still succeed.
	if err := db.RegisterBackup(2, l, lset(2)); err != nil {
		t.Fatal(err)
	}
	if err := db.PromoteBackup(2, l); err != nil {
		t.Fatal(err)
	}
	ops := db.BackupOps()
	if err := db.PromoteBackup(1, l); err != nil {
		t.Fatalf("promotion over own primary: %v", err)
	}
	if db.PrimeBW(l) != 2 || db.PrimariesOn(l) != 2 || !db.HasPrimary(1, l) {
		t.Fatalf("prime=%d primaries=%d: the shared link must keep exactly one reservation per connection",
			db.PrimeBW(l), db.PrimariesOn(l))
	}
	if db.HasBackup(1, l) || db.APLVNorm(l) != 0 || db.SpareBW(l) != 0 {
		t.Fatalf("registration survived: backup=%v norm=%d spare=%d", db.HasBackup(1, l), db.APLVNorm(l), db.SpareBW(l))
	}
	if got := db.BackupOps() - ops; got != 1 {
		t.Fatalf("shared-link promotion counted %d backup ops, want 1", got)
	}
}

// promoteLoop is the per-link loop PromoteBackupPath replaced
// (drtp.Manager.promoteBackup before lsdb owned the rule): the caller
// branches on shared links itself and, on contention, rolls back from a
// hand-kept step list, re-registering with the LSET it remembered.
func promoteLoop(db *DB, id ConnID, path, oldLSET []graph.LinkID) error {
	type step struct {
		link     graph.LinkID
		promoted bool
	}
	var done []step
	for _, l := range path {
		if db.HasPrimary(id, l) {
			if err := db.ReleaseBackup(id, l); err != nil {
				return err
			}
			done = append(done, step{link: l})
			continue
		}
		if err := db.PromoteBackup(id, l); err != nil {
			for _, d := range done {
				if d.promoted {
					if err := db.ReleasePrimary(id, d.link); err != nil {
						return err
					}
				}
				if err := db.RegisterBackup(id, d.link, oldLSET); err != nil {
					return err
				}
			}
			return err
		}
		done = append(done, step{link: l, promoted: true})
	}
	return nil
}

// storedLSETs returns a copy of the LSET each link's registry holds for id
// (nil where id has no backup).
func storedLSETs(db *DB, id ConnID) [][]graph.LinkID {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([][]graph.LinkID, db.n)
	for i := range db.links {
		s := &db.links[i]
		if k, ok := db.findBackupLocked(s, id); ok {
			out[db.linkOf(i)] = append([]graph.LinkID{}, db.lsets[s.backups[k]].links...)
		}
	}
	return out
}

// TestPromoteBackupPathMatchesLoop holds PromoteBackupPath to the per-link
// loop on twin databases: (a) a backup sharing a link with its primary
// promotes to the same state, (b) contention mid-path rolls back to the
// pre-call state — per-link scalars, APLVs, CVs, stored LSETs and spare —
// and both count the same backup ops: one per promoted link plus one per
// re-attached registration.
func TestPromoteBackupPathMatchesLoop(t *testing.T) {
	primary := []graph.LinkID{0, 2, 4}
	backup := []graph.LinkID{1, 2, 5, 9} // shares link 2 with the primary
	setup := func(contended bool) *DB {
		db := newTestDB(t, 2)
		if err := db.ReservePrimaryPath(1, primary); err != nil {
			t.Fatal(err)
		}
		if err := db.RegisterBackupPath(1, backup, primary); err != nil {
			t.Fatal(err)
		}
		if contended {
			// Link 5: one unit of foreign primaries leaves one spare slot
			// for two conflicting backups, and connection 2 takes it.
			if err := db.ReservePrimary(100, 5); err != nil {
				t.Fatal(err)
			}
			if err := db.RegisterBackup(2, 5, primary); err != nil {
				t.Fatal(err)
			}
			if err := db.PromoteBackup(2, 5); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	same := func(what string, a, b []observableState) {
		t.Helper()
		for l := range a {
			if d := diffState(a[l], b[l]); d != "" {
				t.Fatalf("%s: link %d: %s", what, l, d)
			}
		}
	}

	t.Run("shared link", func(t *testing.T) {
		batch, loop := setup(false), setup(false)
		if err := batch.PromoteBackupPath(1, backup); err != nil {
			t.Fatal(err)
		}
		if err := promoteLoop(loop, 1, backup, primary); err != nil {
			t.Fatal(err)
		}
		same("after promotion", captureAll(batch), captureAll(loop))
		checkDerivedState(t, batch, "after the shared-link promotion")
		if batch.PrimeBW(2) != 1 || batch.HasBackup(1, 2) {
			t.Fatalf("shared link 2: prime=%d backup=%v", batch.PrimeBW(2), batch.HasBackup(1, 2))
		}
		if batch.BackupOps() != loop.BackupOps() {
			t.Fatalf("backup ops: batch %d, loop %d", batch.BackupOps(), loop.BackupOps())
		}
	})

	t.Run("contention mid-path", func(t *testing.T) {
		batch, loop := setup(true), setup(true)
		before, beforeLSETs, beforeOps := captureAll(batch), storedLSETs(batch, 1), batch.BackupOps()
		errBatch := batch.PromoteBackupPath(1, backup)
		errLoop := promoteLoop(loop, 1, backup, primary)
		var ib *ErrInsufficientBandwidth
		if !errors.As(errBatch, &ib) || ib.Link != 5 {
			t.Fatalf("error = %v, want ErrInsufficientBandwidth on link 5", errBatch)
		}
		if errString(errBatch) != errString(errLoop) {
			t.Fatalf("errors diverge: batch %q, loop %q", errString(errBatch), errString(errLoop))
		}
		same("rollback vs pre-call", before, captureAll(batch))
		checkDerivedState(t, batch, "after the promote rollback")
		same("rollback vs loop", captureAll(batch), captureAll(loop))
		if got := storedLSETs(batch, 1); !reflect.DeepEqual(got, beforeLSETs) {
			t.Fatalf("stored LSETs after rollback = %v, want %v", got, beforeLSETs)
		}
		// Links 1 and 2 were promoted then restored: two ops each.
		if got := batch.BackupOps() - beforeOps; got != 4 {
			t.Fatalf("rollback counted %d backup ops, want 4", got)
		}
		if batch.BackupOps() != loop.BackupOps() {
			t.Fatalf("backup ops: batch %d, loop %d", batch.BackupOps(), loop.BackupOps())
		}
	})
}

// TestPromoteInvariantsProperty: under random register/promote/release
// interleavings, capacity accounting never goes negative or above the
// link capacity, and promoted connections end up with exactly one
// primary reservation.
func TestPromoteInvariantsProperty(t *testing.T) {
	g, err := gridGraph()
	if err != nil {
		t.Fatal(err)
	}
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db, err := New(g, 4, 1)
		if err != nil {
			return false
		}
		l := graph.LinkID(r.Intn(g.NumLinks()))
		type state int
		const (
			registered state = iota + 1
			promoted
		)
		conns := make(map[ConnID]state)
		next := ConnID(1)
		for op := 0; op < 150; op++ {
			switch r.Intn(4) {
			case 0: // register
				set := []graph.LinkID{graph.LinkID(r.Intn(g.NumLinks()))}
				if err := db.RegisterBackup(next, l, set); err == nil {
					conns[next] = registered
					next++
				}
			case 1: // promote a registered backup
				for id, st := range conns {
					if st == registered {
						if err := db.PromoteBackup(id, l); err == nil {
							conns[id] = promoted
						}
						break
					}
				}
			case 2: // release a backup
				for id, st := range conns {
					if st == registered {
						if err := db.ReleaseBackup(id, l); err != nil {
							return false
						}
						delete(conns, id)
						break
					}
				}
			case 3: // release a promoted primary
				for id, st := range conns {
					if st == promoted {
						if err := db.ReleasePrimary(id, l); err != nil {
							return false
						}
						delete(conns, id)
						break
					}
				}
			}
			prime, spare, cap := db.PrimeBW(l), db.SpareBW(l), db.Capacity(l)
			if prime < 0 || spare < 0 || prime+spare > cap {
				t.Logf("seed %d op %d: prime=%d spare=%d cap=%d", seed, op, prime, spare, cap)
				return false
			}
			promotedCount := 0
			for id, st := range conns {
				switch st {
				case promoted:
					promotedCount++
					if !db.HasPrimary(id, l) || db.HasBackup(id, l) {
						return false
					}
				case registered:
					if !db.HasBackup(id, l) {
						return false
					}
				}
			}
			if db.PrimariesOn(l) != promotedCount {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// gridGraph builds the shared 3x3 fixture without a testing.T (for
// property closures).
func gridGraph() (*graph.Graph, error) {
	g := graph.New(9)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			id := graph.NodeID(r*3 + c)
			if c+1 < 3 {
				if _, err := g.AddEdge(id, id+1); err != nil {
					return nil, err
				}
			}
			if r+1 < 3 {
				if _, err := g.AddEdge(id, graph.NodeID((r+1)*3+c)); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}
