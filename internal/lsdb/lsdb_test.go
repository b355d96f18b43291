package lsdb

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/topology"
)

// newTestDB builds a DB over a 3x3 grid (24 unidirectional links, enough
// for the paper's 13-link examples) with the given capacity and unit 1.
func newTestDB(t *testing.T, capacity int) *DB {
	t.Helper()
	g, err := topology.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	db, err := New(g, capacity, 1)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// paperLink converts the paper's 1-based link label Lk to a LinkID.
func paperLink(k int) graph.LinkID { return graph.LinkID(k - 1) }

func lset(ks ...int) []graph.LinkID {
	out := make([]graph.LinkID, len(ks))
	for i, k := range ks {
		out[i] = paperLink(k)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	g, err := topology.Grid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(g, 0, 1); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(g, 10, 0); err == nil {
		t.Error("zero unit accepted")
	}
	if _, err := New(g, 10, 11); err == nil {
		t.Error("unit above capacity accepted")
	}
	if _, err := NewWithMode(g, 10, 1, Mode(99)); err == nil {
		t.Error("invalid mode accepted")
	}
}

func TestPrimaryAccounting(t *testing.T) {
	db := newTestDB(t, 3)
	l := graph.LinkID(0)
	if db.PrimeBW(l) != 0 || db.FreeBW(l) != 3 {
		t.Fatalf("initial prime=%d free=%d", db.PrimeBW(l), db.FreeBW(l))
	}
	for i := ConnID(1); i <= 3; i++ {
		if err := db.ReservePrimary(i, l); err != nil {
			t.Fatalf("reserve %d: %v", i, err)
		}
	}
	if db.PrimeBW(l) != 3 || db.FreeBW(l) != 0 {
		t.Fatalf("prime=%d free=%d after 3 reservations", db.PrimeBW(l), db.FreeBW(l))
	}
	var bwErr *ErrInsufficientBandwidth
	if err := db.ReservePrimary(4, l); !errors.As(err, &bwErr) {
		t.Fatalf("4th reservation error = %v, want ErrInsufficientBandwidth", err)
	}
	if err := db.ReleasePrimary(2, l); err != nil {
		t.Fatal(err)
	}
	if db.PrimeBW(l) != 2 {
		t.Fatalf("prime = %d after release", db.PrimeBW(l))
	}
	if err := db.ReservePrimary(4, l); err != nil {
		t.Fatalf("reservation after release: %v", err)
	}
}

func TestPrimaryDuplicateAndMissing(t *testing.T) {
	db := newTestDB(t, 3)
	l := graph.LinkID(0)
	if err := db.ReservePrimary(1, l); err != nil {
		t.Fatal(err)
	}
	if err := db.ReservePrimary(1, l); err == nil {
		t.Error("duplicate primary accepted")
	}
	if err := db.ReleasePrimary(9, l); err == nil {
		t.Error("release of unknown primary accepted")
	}
	if db.PrimariesOn(l) != 1 || !db.HasPrimary(1, l) {
		t.Error("primary registry wrong")
	}
}

func TestRegisterBackupUpdatesAPLV(t *testing.T) {
	db := newTestDB(t, 10)
	l := graph.LinkID(5)
	if err := db.RegisterBackup(1, l, lset(2, 3)); err != nil {
		t.Fatal(err)
	}
	if got := db.APLVAt(l, paperLink(2)); got != 1 {
		t.Fatalf("APLV[L2] = %d", got)
	}
	if db.APLVNorm(l) != 2 || db.APLVMax(l) != 1 {
		t.Fatalf("norm=%d max=%d", db.APLVNorm(l), db.APLVMax(l))
	}
	if db.SpareBW(l) != 1 {
		t.Fatalf("spare = %d, want 1 (one activation)", db.SpareBW(l))
	}
	if !db.CVBit(l, paperLink(3)) || db.CVBit(l, paperLink(4)) {
		t.Fatal("CV bits wrong")
	}
	if db.NumBackupsOn(l) != 1 || !db.HasBackup(1, l) {
		t.Fatal("backup registry wrong")
	}
}

func TestConflictingBackupsGrowSpare(t *testing.T) {
	db := newTestDB(t, 10)
	l := graph.LinkID(5)
	// Two backups whose primaries share L2: a single failure of L2 would
	// activate both, so spare must cover 2 units.
	if err := db.RegisterBackup(1, l, lset(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterBackup(2, l, lset(2, 4)); err != nil {
		t.Fatal(err)
	}
	if db.APLVAt(l, paperLink(2)) != 2 || db.APLVMax(l) != 2 {
		t.Fatalf("APLV[L2]=%d max=%d", db.APLVAt(l, paperLink(2)), db.APLVMax(l))
	}
	if db.SpareBW(l) != 2 || db.SC(l) != 2 {
		t.Fatalf("spare=%d SC=%d, want 2", db.SpareBW(l), db.SC(l))
	}
	if db.HasDeficit(l) {
		t.Fatal("deficit reported with sufficient spare")
	}
	// Disjoint primaries multiplex onto the same spare: no growth.
	if err := db.RegisterBackup(3, l, lset(7, 8)); err != nil {
		t.Fatal(err)
	}
	if db.SpareBW(l) != 2 {
		t.Fatalf("spare = %d, disjoint backup should multiplex", db.SpareBW(l))
	}
}

func TestSpareCappedCreatesDeficit(t *testing.T) {
	db := newTestDB(t, 3)
	l := graph.LinkID(5)
	if err := db.ReservePrimary(100, l); err != nil {
		t.Fatal(err)
	}
	if err := db.ReservePrimary(101, l); err != nil {
		t.Fatal(err)
	}
	// capacity 3, prime 2: at most 1 unit of spare fits.
	if err := db.RegisterBackup(1, l, lset(2)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterBackup(2, l, lset(2)); err != nil {
		t.Fatal(err)
	}
	if db.SpareBW(l) != 1 {
		t.Fatalf("spare = %d, want capped 1", db.SpareBW(l))
	}
	if !db.HasDeficit(l) {
		t.Fatal("expected deficit: two conflicting backups, one slot")
	}
}

func TestRegisterBackupRejectsFullLink(t *testing.T) {
	db := newTestDB(t, 2)
	l := graph.LinkID(5)
	if err := db.ReservePrimary(100, l); err != nil {
		t.Fatal(err)
	}
	if err := db.ReservePrimary(101, l); err != nil {
		t.Fatal(err)
	}
	var bwErr *ErrInsufficientBandwidth
	if err := db.RegisterBackup(1, l, lset(2)); !errors.As(err, &bwErr) {
		t.Fatalf("register on full link: %v", err)
	}
}

func TestRegisterBackupDuplicate(t *testing.T) {
	db := newTestDB(t, 5)
	l := graph.LinkID(5)
	if err := db.RegisterBackup(1, l, lset(2)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterBackup(1, l, lset(3)); err == nil {
		t.Fatal("duplicate backup accepted")
	}
}

func TestReleaseBackupRestoresState(t *testing.T) {
	db := newTestDB(t, 10)
	l := graph.LinkID(5)
	if err := db.RegisterBackup(1, l, lset(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterBackup(2, l, lset(2)); err != nil {
		t.Fatal(err)
	}
	if err := db.ReleaseBackup(2, l); err != nil {
		t.Fatal(err)
	}
	if db.APLVAt(l, paperLink(2)) != 1 || db.APLVMax(l) != 1 || db.APLVNorm(l) != 2 {
		t.Fatalf("APLV after release: at=%d max=%d norm=%d",
			db.APLVAt(l, paperLink(2)), db.APLVMax(l), db.APLVNorm(l))
	}
	if db.SpareBW(l) != 1 {
		t.Fatalf("spare = %d after release", db.SpareBW(l))
	}
	if err := db.ReleaseBackup(1, l); err != nil {
		t.Fatal(err)
	}
	if db.SpareBW(l) != 0 || db.APLVNorm(l) != 0 || db.APLVMax(l) != 0 {
		t.Fatal("link state not clean after all releases")
	}
	if err := db.ReleaseBackup(1, l); err == nil {
		t.Fatal("double release accepted")
	}
}

// TestCapacityFollowsLoad: a link keeps what it carries now, not its
// high-water mark. Link b carries 64 backups with overlapping LSETs (its
// registry grows, and its APLV row, which the columns of the LSETs' links
// hold) and is the primary link of 64 backups elsewhere (its APLV column
// grows); once all are released its registry and column are back under
// the capacity shrink keeps, and loading again reaches the same state.
func TestCapacityFollowsLoad(t *testing.T) {
	g, err := topology.Grid(10, 10) // 360 links
	if err != nil {
		t.Fatal(err)
	}
	db, err := New(g, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	const k, b = 64, graph.LinkID(300)
	load := func(release bool) {
		t.Helper()
		for i := 0; i < k; i++ {
			window := make([]graph.LinkID, 8)
			for j := range window {
				window[j] = graph.LinkID(i + j)
			}
			var err1, err2 error
			if release {
				err1 = db.ReleaseBackup(ConnID(i+1), b)
				err2 = db.ReleaseBackup(ConnID(k+i+1), graph.LinkID(100+i))
			} else {
				err1 = db.RegisterBackup(ConnID(i+1), b, window)
				err2 = db.RegisterBackup(ConnID(k+i+1), graph.LinkID(100+i), []graph.LinkID{b})
			}
			if err := errors.Join(err1, err2); err != nil {
				t.Fatal(err)
			}
		}
	}
	caps := func() [2]int {
		s := &db.links[b]
		return [2]int{cap(s.backups), cap(s.col)}
	}
	load(false)
	loaded := caps()
	if s, row := &db.links[b], rowLen(db, b); len(s.backups) != k || row != k+7 || len(s.col) != k {
		t.Fatalf("loaded link holds %d backups, %d APLV entries, %d column entries; want %d, %d, %d",
			len(s.backups), row, len(s.col), k, k+7, k)
	}
	load(true)
	if released := caps(); slices.Max(released[:]) > keepRoute {
		t.Errorf("released link keeps capacity %v (registry, column), loaded %v; want each at most %d", released, loaded, keepRoute)
	}
	for j := range db.links { // the columns that held b's row among them
		if c := cap(db.links[j].col); c > keepRoute {
			t.Errorf("column %d keeps capacity %d with every backup released; want at most %d", j, c, keepRoute)
		}
	}
	load(false)
	checkDerivedState(t, db, "reloaded")
	if got := db.BackupsOn(b); len(got) != k {
		t.Fatalf("reloaded link lists %d backups, want %d", len(got), k)
	}
}

func TestRegisterBackupCopiesLSET(t *testing.T) {
	db := newTestDB(t, 10)
	l := graph.LinkID(5)
	set := lset(2, 3)
	if err := db.RegisterBackup(1, l, set); err != nil {
		t.Fatal(err)
	}
	set[0] = paperLink(9)
	if err := db.ReleaseBackup(1, l); err != nil {
		t.Fatal(err)
	}
	if db.APLVNorm(l) != 0 {
		t.Fatal("mutating caller LSET corrupted the registry")
	}
}

// TestRegisterBackupRejectsOutOfRangeLSET: an LSET arrives off the wire
// as signed varints, so an entry outside [0, NumLinks) must be an error
// that mutates nothing and counts no backup op — accepted, a high entry
// indexes past the Conflict Vector at the next AppendCV and a negative
// one corrupts it silently.
func TestRegisterBackupRejectsOutOfRangeLSET(t *testing.T) {
	db := newTestDB(t, 10)
	n := graph.LinkID(db.NumLinks())
	path := []graph.LinkID{0, 1}
	for _, bad := range [][]graph.LinkID{{n + 5}, {n}, {-1}, {2, -7, 3}} {
		if err := db.RegisterBackup(1, 0, bad); err == nil {
			t.Fatalf("RegisterBackup accepted LSET %v", bad)
		}
		if err := db.RegisterBackupPath(1, path, bad); err == nil {
			t.Fatalf("RegisterBackupPath accepted LSET %v", bad)
		}
	}
	for _, l := range path {
		if db.HasBackup(1, l) || db.APLVNorm(l) != 0 || db.SpareBW(l) != 0 {
			t.Fatalf("link %d mutated by a rejected registration", l)
		}
		if cv := db.AppendCV(l, nil); !bytes.Equal(cv, make([]byte, (int(n)+7)/8)) {
			t.Fatalf("link %d: CV %x after rejected registrations", l, cv)
		}
	}
	if db.BackupOps() != 0 {
		t.Fatalf("rejected registrations counted %d backup ops", db.BackupOps())
	}
	if err := db.RegisterBackupPath(1, path, []graph.LinkID{0, n - 1}); err != nil {
		t.Fatalf("in-range LSET rejected: %v", err)
	}
}

func TestDedicatedMode(t *testing.T) {
	g, err := topology.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewWithMode(g, 3, 1, Dedicated)
	if err != nil {
		t.Fatal(err)
	}
	if db.Mode() != Dedicated {
		t.Fatalf("mode = %v", db.Mode())
	}
	l := graph.LinkID(5)
	// Disjoint primaries still cost one unit each without multiplexing.
	if err := db.RegisterBackup(1, l, lset(2)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterBackup(2, l, lset(7)); err != nil {
		t.Fatal(err)
	}
	if db.SpareBW(l) != 2 {
		t.Fatalf("dedicated spare = %d, want 2", db.SpareBW(l))
	}
	if err := db.RegisterBackup(3, l, lset(9)); err != nil {
		t.Fatal(err)
	}
	// Link full (spare 3 of capacity 3): next register must fail even
	// though capacity - prime would admit it under multiplexing.
	if err := db.RegisterBackup(4, l, lset(11)); err == nil {
		t.Fatal("dedicated overbooking accepted")
	}
}

// TestFigure1APLV reproduces the paper's Figure 1 numbers: with backups
// B1 (primary LSET {L8,L12,L13}) and B3 (primary LSET {L11,L13}) routed
// through L7, APLV7 = (0,0,0,0,0,0,0,1,0,0,1,1,2) and ‖APLV7‖₁ = 5.
func TestFigure1APLV(t *testing.T) {
	db := newTestDB(t, 10)
	l7 := paperLink(7)
	if err := db.RegisterBackup(1, l7, lset(8, 12, 13)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterBackup(3, l7, lset(11, 13)); err != nil {
		t.Fatal(err)
	}
	want := map[int]int{8: 1, 11: 1, 12: 1, 13: 2}
	for k := 1; k <= 13; k++ {
		if got := db.APLVAt(l7, paperLink(k)); got != want[k] {
			t.Errorf("APLV7[L%d] = %d, want %d", k, got, want[k])
		}
	}
	if db.APLVNorm(l7) != 5 {
		t.Errorf("‖APLV7‖₁ = %d, want 5", db.APLVNorm(l7))
	}
	// L13 failing would activate both backups: spare must cover 2.
	if db.APLVMax(l7) != 2 || db.SpareBW(l7) != 2 {
		t.Errorf("max=%d spare=%d, want 2,2", db.APLVMax(l7), db.SpareBW(l7))
	}
}

// TestFigure2CV reproduces the paper's Figure 2: with B1 (primary LSET
// {L8,L12,L13}) and B2 (primary LSET {L1,L3}) through L6,
// CV6 = (1,0,1,0,0,0,0,1,0,0,0,1,1).
func TestFigure2CV(t *testing.T) {
	db := newTestDB(t, 10)
	l6 := paperLink(6)
	if err := db.RegisterBackup(1, l6, lset(8, 12, 13)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterBackup(2, l6, lset(1, 3)); err != nil {
		t.Fatal(err)
	}
	wantBits := []int{1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1}
	for i, want := range wantBits {
		if got := db.CVBit(l6, paperLink(i+1)); got != (want == 1) {
			t.Errorf("CV6[L%d] = %v, want %v", i+1, got, want == 1)
		}
	}
	popcount := 0
	for _, b := range db.AppendCV(l6, nil) {
		popcount += bits.OnesCount8(b)
	}
	if popcount != 5 {
		t.Errorf("CV6 popcount = %d, want 5", popcount)
	}
	// Disjoint primaries: one spare unit suffices (the paper's point
	// about L6 in Figure 2's discussion).
	if db.APLVMax(l6) != 1 || db.SpareBW(l6) != 1 {
		t.Errorf("max=%d spare=%d, want 1,1", db.APLVMax(l6), db.SpareBW(l6))
	}
}

func TestTotals(t *testing.T) {
	db := newTestDB(t, 10)
	if db.TotalCapacity() != 240 {
		t.Fatalf("total capacity = %d, want 240", db.TotalCapacity())
	}
	if err := db.ReservePrimary(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := db.ReservePrimary(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterBackup(1, 5, lset(1, 3)); err != nil {
		t.Fatal(err)
	}
	if db.TotalPrimeBW() != 2 || db.TotalSpareBW() != 1 {
		t.Fatalf("prime=%d spare=%d", db.TotalPrimeBW(), db.TotalSpareBW())
	}
	if db.BackupOps() != 1 {
		t.Fatalf("backupOps = %d", db.BackupOps())
	}
	if db.UnitBW() != 1 || db.NumLinks() != 24 {
		t.Fatalf("unit=%d links=%d", db.UnitBW(), db.NumLinks())
	}
}

func TestBackupsOn(t *testing.T) {
	db := newTestDB(t, 10)
	l := graph.LinkID(5)
	// Registered out of ID order, listed in it.
	for _, id := range []ConnID{3, 1, 2} {
		if err := db.RegisterBackup(id, l, lset(int(id))); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.BackupsOn(l); !slices.Equal(got, []ConnID{1, 2, 3}) {
		t.Fatalf("BackupsOn = %v, want [1 2 3]", got)
	}
}

// TestAPLVMatchesRegistryProperty checks, under random interleavings of
// register/release, that the incrementally maintained APLV, norm, max and
// spare always equal values recomputed from scratch from the registry.
func TestAPLVMatchesRegistryProperty(t *testing.T) {
	g, err := topology.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db, err := New(g, 50, 1)
		if err != nil {
			return false
		}
		l := graph.LinkID(r.Intn(g.NumLinks()))
		// reference: id -> LSET
		ref := make(map[ConnID][]graph.LinkID)
		nextID := ConnID(1)
		for op := 0; op < 200; op++ {
			if len(ref) == 0 || r.Intn(2) == 0 {
				set := make([]graph.LinkID, 0, 3)
				for i := 0; i < 1+r.Intn(3); i++ {
					set = append(set, graph.LinkID(r.Intn(g.NumLinks())))
				}
				if err := db.RegisterBackup(nextID, l, set); err != nil {
					return false
				}
				ref[nextID] = set
				nextID++
			} else {
				// release a random registered backup
				var victim ConnID
				k := r.Intn(len(ref))
				for id := range ref {
					if k == 0 {
						victim = id
						break
					}
					k--
				}
				if err := db.ReleaseBackup(victim, l); err != nil {
					return false
				}
				delete(ref, victim)
			}
			if !aplvMatches(db, l, ref) {
				t.Logf("seed %d op %d: APLV mismatch", seed, op)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// aplvMatches recomputes APLV/norm/max from the reference registry and
// compares with the DB's incremental state.
func aplvMatches(db *DB, l graph.LinkID, ref map[ConnID][]graph.LinkID) bool {
	want := make([]int, db.NumLinks())
	for _, set := range ref {
		for _, pl := range set {
			want[pl]++
		}
	}
	norm, max := 0, 0
	for _, v := range want {
		norm += v
		if v > max {
			max = v
		}
	}
	got := db.APLV(l)
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	wantSpare := max * db.UnitBW()
	if room := db.Capacity(l) - db.PrimeBW(l); wantSpare > room {
		wantSpare = room
	}
	return db.APLVNorm(l) == norm && db.APLVMax(l) == max && db.SpareBW(l) == wantSpare
}
