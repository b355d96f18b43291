package lsdb

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"github.com/rtcl/drtp/internal/graph"
)

// loadedTestDB builds the grid DB and loads it with a deterministic
// pseudo-random mix of primaries and backups so every snapshot field has
// nonzero, link-varying values.
func loadedTestDB(t *testing.T, capacity int, seed int64) *DB {
	t.Helper()
	db := newTestDB(t, capacity)
	r := rand.New(rand.NewSource(seed))
	n := db.NumLinks()
	for id := ConnID(1); id <= 30; id++ {
		l := graph.LinkID(r.Intn(n))
		if r.Intn(2) == 0 {
			_ = db.ReservePrimary(id, l)
			continue
		}
		lset := []graph.LinkID{graph.LinkID(r.Intn(n)), graph.LinkID(r.Intn(n))}
		_ = db.RegisterBackup(id, l, lset)
	}
	return db
}

// TestSnapshotIntoMatchesAccessors pins the batch read against the
// per-link locked accessors it replaces on the hot paths.
func TestSnapshotIntoMatchesAccessors(t *testing.T) {
	db := loadedTestDB(t, 10, 17)
	var snap Snapshot
	s := db.SnapshotInto(&snap)
	if s != &snap {
		t.Fatal("SnapshotInto must return its argument")
	}
	for l := 0; l < db.NumLinks(); l++ {
		id := graph.LinkID(l)
		if s.AvailBackup[l] != db.AvailableForBackup(id) {
			t.Errorf("link %d: AvailBackup = %d, accessor %d", l, s.AvailBackup[l], db.AvailableForBackup(id))
		}
		if s.Free[l] != db.AvailableForPrimary(id) {
			t.Errorf("link %d: Free = %d, accessor %d", l, s.Free[l], db.AvailableForPrimary(id))
		}
		if s.Norm[l] != db.APLVNorm(id) {
			t.Errorf("link %d: Norm = %d, accessor %d", l, s.Norm[l], db.APLVNorm(id))
		}
	}
}

// TestBatchReadsMatchAccessors covers the remaining batch read forms:
// SCInto against DB.SC, ConflictCountsInto against per-bit CVBit sums,
// and AppendCV against the CV(l).Bytes() wire form it shortcuts.
func TestBatchReadsMatchAccessors(t *testing.T) {
	db := loadedTestDB(t, 10, 23)
	sc := db.SCInto(nil)
	for l := 0; l < db.NumLinks(); l++ {
		if sc[l] != db.SC(graph.LinkID(l)) {
			t.Errorf("link %d: SCInto = %d, SC = %d", l, sc[l], db.SC(graph.LinkID(l)))
		}
	}

	lset := []graph.LinkID{0, 3, 7, 11}
	counts := db.ConflictCountsInto(lset, nil)
	for l := 0; l < db.NumLinks(); l++ {
		want := 0
		for _, j := range lset {
			if db.CVBit(graph.LinkID(l), j) {
				want++
			}
		}
		if counts[l] != float64(want) {
			t.Errorf("link %d: ConflictCountsInto = %v, CVBit sum = %d", l, counts[l], want)
		}
	}

	for l := 0; l < db.NumLinks(); l++ {
		want := db.CV(graph.LinkID(l)).Bytes()
		got := db.AppendCV(graph.LinkID(l), nil)
		if !bytes.Equal(got, want) {
			t.Errorf("link %d: AppendCV = %x, CV().Bytes() = %x", l, got, want)
		}
	}
}

// TestReservePrimaryPathMatchesLoop checks the batched reservation's
// success path, its first-failure rollback, and error equivalence with
// the per-link loop it replaces.
func TestReservePrimaryPathMatchesLoop(t *testing.T) {
	db := newTestDB(t, 2)
	path := []graph.LinkID{0, 2, 4}
	if err := db.ReservePrimaryPath(1, path); err != nil {
		t.Fatal(err)
	}
	for _, l := range path {
		if !db.HasPrimary(1, l) {
			t.Fatalf("link %d missing the batch reservation", l)
		}
	}

	// Saturate link 2, then a path crossing it must fail atomically.
	if err := db.ReservePrimaryPath(2, []graph.LinkID{2}); err != nil {
		t.Fatal(err)
	}
	err := db.ReservePrimaryPath(3, []graph.LinkID{0, 2, 4})
	var ib *ErrInsufficientBandwidth
	if !errors.As(err, &ib) || ib.Link != 2 {
		t.Fatalf("saturated-link error = %v, want ErrInsufficientBandwidth on link 2", err)
	}
	for _, l := range path {
		if db.HasPrimary(3, l) {
			t.Fatalf("link %d kept a reservation after rollback", l)
		}
	}

	if err := db.ReleasePrimaryPath(1, path); err != nil {
		t.Fatal(err)
	}
	if err := db.ReleasePrimaryPath(1, path); err == nil {
		t.Fatal("double release must fail")
	}
}

// TestRegisterBackupPathMatchesLoop checks the batched backup
// registration: per-link APLV/norm bookkeeping, the backup-op count the
// overhead experiment reports, and rollback on a rejected link.
func TestRegisterBackupPathMatchesLoop(t *testing.T) {
	batch := newTestDB(t, 4)
	loop := newTestDB(t, 4)
	path := []graph.LinkID{1, 5, 9}
	lset := []graph.LinkID{0, 2}

	if err := batch.RegisterBackupPath(1, path, lset); err != nil {
		t.Fatal(err)
	}
	for _, l := range path {
		if err := loop.RegisterBackup(1, l, lset); err != nil {
			t.Fatal(err)
		}
	}
	for l := 0; l < batch.NumLinks(); l++ {
		id := graph.LinkID(l)
		if batch.APLVNorm(id) != loop.APLVNorm(id) || batch.SpareBW(id) != loop.SpareBW(id) {
			t.Errorf("link %d: batch (norm %d, spare %d) != loop (norm %d, spare %d)",
				l, batch.APLVNorm(id), batch.SpareBW(id), loop.APLVNorm(id), loop.SpareBW(id))
		}
	}
	if batch.BackupOps() != loop.BackupOps() {
		t.Errorf("backup ops: batch %d, loop %d", batch.BackupOps(), loop.BackupOps())
	}

	if err := batch.ReleaseBackupPath(1, path); err != nil {
		t.Fatal(err)
	}
	for _, l := range path {
		if err := loop.ReleaseBackup(1, l); err != nil {
			t.Fatal(err)
		}
	}
	if batch.BackupOps() != loop.BackupOps() {
		t.Errorf("backup ops after release: batch %d, loop %d", batch.BackupOps(), loop.BackupOps())
	}
	for l := 0; l < batch.NumLinks(); l++ {
		if batch.APLVNorm(graph.LinkID(l)) != 0 {
			t.Errorf("link %d: norm %d after full release", l, batch.APLVNorm(graph.LinkID(l)))
		}
	}

	// Rollback: saturate a middle link with primaries so registration
	// fails there, and nothing of the prefix survives.
	for id := ConnID(10); id < 14; id++ {
		if err := batch.ReservePrimary(id, 5); err != nil {
			t.Fatal(err)
		}
	}
	err := batch.RegisterBackupPath(2, path, lset)
	var ib *ErrInsufficientBandwidth
	if !errors.As(err, &ib) || ib.Link != 5 {
		t.Fatalf("saturated-link error = %v, want ErrInsufficientBandwidth on link 5", err)
	}
	for _, l := range path {
		if batch.HasBackup(2, l) {
			t.Fatalf("link %d kept a registration after rollback", l)
		}
	}
	checkDerivedState(t, batch, "after the register rollback")
}

// TestSnapshotIntoAllocs is the allocation budget for the per-route
// batch reads: once the arrays have grown to the topology's size, a
// refresh must be allocation-free. These run before every route
// computation in the sweep, so a stray allocation here scales with the
// request count, not the cell count.
func TestSnapshotIntoAllocs(t *testing.T) {
	db := loadedTestDB(t, 10, 29)
	var snap Snapshot
	db.SnapshotInto(&snap) // grow to size
	if avg := testing.AllocsPerRun(200, func() {
		db.SnapshotInto(&snap)
	}); avg > 0 {
		t.Errorf("SnapshotInto allocates %.1f objects per refresh, want 0", avg)
	}

	sc := db.SCInto(nil)
	if avg := testing.AllocsPerRun(200, func() {
		sc = db.SCInto(sc)
	}); avg > 0 {
		t.Errorf("SCInto allocates %.1f objects per refresh, want 0", avg)
	}

	lset := []graph.LinkID{0, 3, 7, 11}
	counts := db.ConflictCountsInto(lset, nil)
	if avg := testing.AllocsPerRun(200, func() {
		counts = db.ConflictCountsInto(lset, counts)
	}); avg > 0 {
		t.Errorf("ConflictCountsInto allocates %.1f objects per refresh, want 0", avg)
	}
}
