package lsdb

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/topology"
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
		if s.Free[l] != db.FreeBW(id) {
			t.Errorf("link %d: Free = %d, accessor %d", l, s.Free[l], db.FreeBW(id))
		}
		if s.Norm[l] != float64(db.APLVNorm(id)) {
			t.Errorf("link %d: Norm = %v, accessor %d", l, s.Norm[l], db.APLVNorm(id))
		}
	}
}

// TestBatchReadsMatchAccessors covers the remaining batch read forms:
// SCInto against DB.SC and ConflictCountsInto against per-bit CVBit sums.
// (AppendCV is held to a map oracle by aplvOracle.checkLink.)
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

// TestOddPathsMatchLoop holds the whole-path backup calls to the per-link
// loops they replace on the paths they do not fold at once — an empty
// path, a link named twice, links registered under different LSETs, a link
// without a registration mid-path — in both spare modes: the same error,
// backup-op count and per-link state, and a database Check accepts. With
// dedicated spare at capacity 1 a link named twice refuses for bandwidth,
// on the spare its first registration took, before the duplicate check.
func TestOddPathsMatchLoop(t *testing.T) {
	steps := []struct {
		release    bool
		id         ConnID
		path, lset []graph.LinkID
	}{
		{false, 1, nil, lset(1)},
		{false, 1, lset(2, 5, 2), lset(1, 3)}, // a link named twice
		{false, 2, lset(2, 5), lset(1, 3)},
		{false, 3, lset(6), lset(4)},
		{false, 3, lset(7), lset(1, 4, 4)}, // another LSET
		{true, 3, lset(6, 7), nil},         // two LSETs
		{true, 2, lset(2, 6, 5), nil},      // no registration on 6: 2 released, 5 kept
		{true, 2, lset(5, 5), nil},         // a link named twice
		{true, 1, nil, nil},
	}
	loopRegister := func(db *DB, id ConnID, path, lset []graph.LinkID) error {
		for i, l := range path {
			if err := db.RegisterBackup(id, l, lset); err != nil {
				for _, done := range path[:i] {
					_ = db.ReleaseBackup(id, done)
				}
				return err
			}
		}
		return nil
	}
	loopRelease := func(db *DB, id ConnID, path []graph.LinkID) error {
		for _, l := range path {
			if err := db.ReleaseBackup(id, l); err != nil {
				return err
			}
		}
		return nil
	}
	g, err := topology.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mode     Mode
		capacity int
	}{{Multiplexed, 3}, {Dedicated, 1}} {
		batch, err1 := NewWithMode(g, c.capacity, 1, c.mode)
		loop, err2 := NewWithMode(g, c.capacity, 1, c.mode)
		if err := errors.Join(err1, err2); err != nil {
			t.Fatal(err)
		}
		for i, s := range steps {
			var got, want error
			if s.release {
				got, want = batch.ReleaseBackupPath(s.id, s.path), loopRelease(loop, s.id, s.path)
			} else {
				got, want = batch.RegisterBackupPath(s.id, s.path, s.lset), loopRegister(loop, s.id, s.path, s.lset)
			}
			if errString(got) != errString(want) {
				t.Fatalf("%v step %d: error %q, loop %q", c.mode, i, errString(got), errString(want))
			}
			if b, l := batch.BackupOps(), loop.BackupOps(); b != l {
				t.Fatalf("%v step %d: %d backup ops, loop %d", c.mode, i, b, l)
			}
			for l := range batch.NumLinks() {
				id := graph.LinkID(l)
				if !slices.Equal(batch.APLV(id), loop.APLV(id)) || !slices.Equal(batch.BackupsOn(id), loop.BackupsOn(id)) ||
					batch.APLVMax(id) != loop.APLVMax(id) || batch.SpareBW(id) != loop.SpareBW(id) {
					t.Fatalf("%v step %d: link %d: APLV %v, backups %v, max %d, spare %d; loop %v, %v, %d, %d", c.mode, i, l,
						batch.APLV(id), batch.BackupsOn(id), batch.APLVMax(id), batch.SpareBW(id),
						loop.APLV(id), loop.BackupsOn(id), loop.APLVMax(id), loop.SpareBW(id))
				}
			}
			checkDerivedState(t, batch, fmt.Sprintf("%v step %d", c.mode, i))
		}
	}
}

// TestSnapshotIntoAllocs is the allocation budget for the per-route
// batch reads: once the arrays have grown to the topology's size, a
// refresh must be allocation-free, patched or in full, and so must the
// change log it patches from once the log has been cut for the first time.
// These run before every route computation in the sweep, so a stray
// allocation here scales with the request count, not the cell count.
func TestSnapshotIntoAllocs(t *testing.T) {
	db := loadedTestDB(t, 10, 29)
	touch := func() {
		if err := db.ReservePrimary(99, 0); err != nil {
			t.Fatal(err)
		}
		if err := db.ReleasePrimary(99, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < db.NumLinks(); i++ {
		touch() // 2 entries each: the log reaches its capacity and is cut
	}
	var snap Snapshot
	db.SnapshotInto(&snap) // grow to size
	if avg := testing.AllocsPerRun(200, func() {
		touch()
		db.SnapshotInto(&snap)
	}); avg > 0 {
		t.Errorf("a transition pair and a patch refresh allocate %.1f objects, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		snap.from = nil // as a zero Snapshot: a full fill, into the same arrays
		db.SnapshotInto(&snap)
	}); avg > 0 {
		t.Errorf("a full SnapshotInto allocates %.1f objects per refresh, want 0", avg)
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

// BenchmarkSnapshotInto times the link-state read that precedes every
// route, at the ledger's scale_2k size (2000 nodes, 6000 links) and the
// 10k-node experiment's (30000 links), beside BenchmarkRouteSearch in
// internal/graph: between two refreshes one connection is established and
// released — a primary reserved, a backup registered, both torn down, some
// 35 transitions — and then a long-lived Snapshot is brought up to date
// (patched), or a zero Snapshot with arrays of the right size is (full),
// which is what every refresh cost before the change log. ns/op is the
// refresh alone, clocked per call, so it carries one clock read (some
// 40 ns) on either row; rewritten/op is the link entries written. Both are
// means, and on the patched row they include the full refill that a cut of
// the log forces once per NumLinks transitions.
//
// The ledger's lsdb.snapshot_us_p50 probe is a second, lagging reader of
// the same database — bench/replay.go refreshes a Snapshot of its own on
// every 20th arrival, so each of its refreshes patches twenty requests'
// links (some 700 entries at scale_2k, and every eighth is cut past) — and
// under-reports what the route path saves: over three traced scale_2k
// pairs at one seed it read 23.6 -> 12.2 µs (medians) while
// routing.plsr.route_us_p50 read 63.5 -> 29.7 µs and
// routing.dlsr.route_us_p50 59.1 -> 29.5 µs.
func BenchmarkSnapshotInto(b *testing.B) {
	for _, nodes := range []int{2000, 10000} {
		g, err := topology.Waxman(topology.WaxmanConfig{Nodes: nodes, AvgDegree: 3, MinDegree: 2, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(strconv.Itoa(g.NumLinks()), func(b *testing.B) {
			b.Run("patched", func(b *testing.B) { benchSnapshotInto(b, g, false) })
			b.Run("full", func(b *testing.B) { benchSnapshotInto(b, g, true) })
		})
	}
}

func benchSnapshotInto(b *testing.B, g *graph.Graph, full bool) {
	db, err := New(g, 100, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	type conn struct{ primary, backup []graph.LinkID }
	conns := make([]conn, 64)
	// A minimum-hop primary between random end points and the shortest
	// backup that avoids it: the routes the link-state schemes reserve.
	var scratch graph.Scratch
	for i := range conns {
		src, dst := graph.NodeID(r.Intn(g.NumNodes())), graph.NodeID(r.Intn(g.NumNodes()))
		primary, _ := scratch.MinHopPath(g, src, dst, func(graph.LinkID) bool { return true })
		backup, _ := scratch.MinHopPath(g, src, dst, func(l graph.LinkID) bool { return !primary.Contains(l) })
		conns[i] = conn{primary: primary.Links(), backup: backup.Links()}
	}
	var (
		snap      Snapshot
		spent     time.Duration
		rewritten uint64
	)
	db.SnapshotInto(&snap)
	for i := 0; i < b.N; i++ {
		c := &conns[i%len(conns)]
		if err := db.ReservePrimaryPath(1, c.primary); err != nil {
			b.Fatal(err)
		}
		if err := db.RegisterBackupPath(1, c.backup, c.primary); err != nil {
			b.Fatal(err)
		}
		if err := db.ReleasePrimaryPath(1, c.primary); err != nil {
			b.Fatal(err)
		}
		if err := db.ReleaseBackupPath(1, c.backup); err != nil {
			b.Fatal(err)
		}
		if full {
			snap.from = nil
		}
		if end := db.changedBase + uint64(len(db.changed)); snap.from == db && snap.seq >= db.changedBase {
			rewritten += end - snap.seq
		} else {
			rewritten += uint64(db.n)
		}
		//drtplint:ignore determinism the refresh's wall time is the quantity under test; the transitions before it stay outside the clock
		start := time.Now()
		db.SnapshotInto(&snap)
		//drtplint:ignore determinism as above
		spent += time.Since(start)
	}
	b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N), "ns/op")
	b.ReportMetric(float64(rewritten)/float64(b.N), "rewritten/op")
}

// backupRoute is one connection's backup path and the LSET it carries.
type backupRoute struct{ backup, lset []graph.LinkID }

// loader builds a loaded database on g (steadyStateDB, paperDB): the
// routes it registered as connections 1..len(load), and extra more.
type loader func(tb testing.TB, g *graph.Graph, extra int) (db *DB, load, more []backupRoute)

// steadyStateDB returns a database on g loaded the way scale_2k's D-LSR
// cell stands at steady state — about 1.8 backups and 15 APLV entries per
// link — with connections 1..len(load) registered: each a 9-hop backup,
// the shortest route avoiding a minimum-hop primary between random end
// points, carrying that primary's first 9 links as its LSET. more holds
// extra routes drawn the same way, for IDs above the load (arrivals').
func steadyStateDB(tb testing.TB, g *graph.Graph, extra int) (db *DB, load, more []backupRoute) {
	tb.Helper()
	db, err := New(g, 40, 1)
	if err != nil {
		tb.Fatal(err)
	}
	const hops = 9
	r := rand.New(rand.NewSource(5))
	var scratch graph.Scratch
	routes := make([]backupRoute, 0, g.NumLinks()/5+extra)
	for len(routes) < cap(routes) {
		src, dst := graph.NodeID(r.Intn(g.NumNodes())), graph.NodeID(r.Intn(g.NumNodes()))
		primary, ok := scratch.MinHopPath(g, src, dst, func(graph.LinkID) bool { return true })
		if !ok || primary.Hops() < hops {
			continue
		}
		backup, ok := scratch.MinHopPath(g, src, dst, func(l graph.LinkID) bool { return !primary.Contains(l) })
		if !ok || backup.Hops() < hops {
			continue
		}
		routes = append(routes, backupRoute{backup: backup.Links()[:hops], lset: primary.Links()[:hops]})
	}
	load, more = routes[:g.NumLinks()/5], routes[g.NumLinks()/5:]
	if err := loadBackups(db, load, false); err != nil {
		tb.Fatal(err)
	}
	return db, load, more
}

// paperDB returns a database on g loaded with random backups, each the
// shortest route avoiding a minimum-hop primary between random end points
// and carrying that whole primary as its LSET, until eight APLV rows hold
// more than a quarter of the links — on the paper's 60-node topology, the
// rows a dense up-convert once took over. more holds extra routes drawn
// the same way.
func paperDB(tb testing.TB, g *graph.Graph, extra int) (db *DB, load, more []backupRoute) {
	tb.Helper()
	db, err := New(g, 40, 1)
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	var scratch graph.Scratch
	next := func() backupRoute {
		for {
			src, dst := graph.NodeID(r.Intn(g.NumNodes())), graph.NodeID(r.Intn(g.NumNodes()))
			primary, ok := scratch.MinHopPath(g, src, dst, func(graph.LinkID) bool { return true })
			if !ok || primary.Hops() == 0 {
				continue
			}
			backup, ok := scratch.MinHopPath(g, src, dst, func(l graph.LinkID) bool { return !primary.Contains(l) })
			if ok {
				return backupRoute{backup: backup.Links(), lset: primary.Links()}
			}
		}
	}
	long := func() int {
		k := 0
		for l := range db.links {
			if rowLen(db, graph.LinkID(l)) > db.n/4 {
				k++
			}
		}
		return k
	}
	for long() < 8 {
		c := next()
		load = append(load, c)
		if err := db.RegisterBackupPath(ConnID(len(load)), c.backup, c.lset); err != nil {
			tb.Fatal(err)
		}
	}
	for range extra {
		more = append(more, next())
	}
	return db, load, more
}

// loadBackups registers (or, with unload, releases) route i of load as
// connection i+1.
func loadBackups(db *DB, load []backupRoute, unload bool) error {
	for i, c := range load {
		var err error
		if unload {
			err = db.ReleaseBackupPath(ConnID(i+1), c.backup)
		} else {
			err = db.RegisterBackupPath(ConnID(i+1), c.backup, c.lset)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// TestBackupPathAllocs is the allocation budget of the per-request backup
// bookkeeping: on a loaded database, a warmed RegisterBackupPath +
// ReleaseBackupPath pair allocates at most one object, the LSET clone the
// registration keeps — the registries and APLV columns it touches grow and
// give capacity back without allocating once they have carried the
// request. It runs at 300 nodes at scale_2k's steady state
// and on the paper's 60-node topology with rows past a quarter of the
// links.
func TestBackupPathAllocs(t *testing.T) {
	for _, c := range []struct {
		name  string
		nodes int
		load  loader
	}{
		{"steady", 300, steadyStateDB},
		{"paper", 60, paperDB},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, err := topology.Waxman(topology.WaxmanConfig{Nodes: c.nodes, AvgDegree: 3, MinDegree: 2, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			db, load, more := c.load(t, g, 16)
			long := 0 // backup links of more whose row holds over a quarter of the links
			for _, r := range more {
				for _, l := range r.backup {
					if rowLen(db, l) > db.n/4 {
						long++
					}
				}
			}
			t.Logf("%d links, %d backups loaded, %d of the pairs' backup links on rows past %d entries", db.n, len(load), long, db.n/4)
			if c.nodes == 60 && long == 0 {
				t.Fatal("no pair crosses a long row; the budget no longer covers them")
			}
			for i, r := range more {
				id := ConnID(len(load) + 1 + i)
				pair := func() {
					if err := db.RegisterBackupPath(id, r.backup, r.lset); err != nil {
						t.Fatal(err)
					}
					if err := db.ReleaseBackupPath(id, r.backup); err != nil {
						t.Fatal(err)
					}
				}
				pair() // warm
				if avg := testing.AllocsPerRun(50, pair); avg > 1 {
					t.Errorf("route %d: a register + release pair allocates %.1f objects, want at most 1 (the LSET clone)", i, avg)
				}
			}
			checkDerivedState(t, db, "after the pairs")
		})
	}
}

// TestColdBackupPathAllocs is the allocation budget of a registration on
// links that carry nothing yet: the first RegisterBackupPath of a 9-hop
// backup carrying a 9-link LSET onto an empty database. Besides the LSET
// clone, the folds' two scratch buffers (the sorted LSET and path) and
// the LSET table, each backup link's registry grows once, and each LSET
// link's APLV column grows by at least 4 entries at a time.
func TestColdBackupPathAllocs(t *testing.T) {
	const budget = 52
	g, err := topology.Waxman(topology.WaxmanConfig{Nodes: 300, AvgDegree: 3, MinDegree: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _, more := steadyStateDB(t, g, 1)
	c := more[0]
	const runs = 10
	dbs := make([]*DB, runs+1) // AllocsPerRun warms up on the first
	for i := range dbs {
		if dbs[i], err = New(g, 40, 1); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		if err := dbs[next].RegisterBackupPath(1, c.backup, c.lset); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if avg > budget {
		t.Errorf("a cold registration of a %d-hop backup with a %d-link LSET allocates %.1f objects, want at most %d", len(c.backup), len(c.lset), avg, budget)
	}
	checkDerivedState(t, dbs[0], "after the cold registration")
}

// BenchmarkBackupPath times the backup bookkeeping a request pays beside
// its route search — RegisterBackupPath, then ReleaseBackupPath — on the
// paper's 60-node topology (180 links) loaded until eight rows hold more
// than a quarter of the links (paperDB), and with a 9-hop backup
// carrying a 9-link LSET on a database loaded to scale_2k's steady state
// (6000 links) and to the same load per link at the 10k-node experiment's
// size (30000 links). Beside BenchmarkSnapshotInto it is the
// lsdb layer's home. Besides ns/op and allocs/op it reports the load
// (backups/link, and entries/link of the APLV columns) and the heap a
// second database holds per registered backup-link after it is loaded,
// unloaded and loaded again (B/backup-link, LSET clones included): what
// the bookkeeping costs in memory once the load has moved.
func BenchmarkBackupPath(b *testing.B) {
	for _, nodes := range []int{60, 2000, 10000} {
		g, err := topology.Waxman(topology.WaxmanConfig{Nodes: nodes, AvgDegree: 3, MinDegree: 2, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		load := loader(steadyStateDB)
		if nodes == 60 {
			load = paperDB
		}
		b.Run(strconv.Itoa(g.NumLinks()), func(b *testing.B) { benchBackupPath(b, g, load) })
	}
}

func benchBackupPath(b *testing.B, g *graph.Graph, loadDB loader) {
	db, load, more := loadDB(b, g, 64)
	backupLinks, entries := 0, 0
	for _, c := range load {
		backupLinks += len(c.backup)
	}
	for l := range db.links {
		entries += len(db.links[l].col)
	}

	other, err := New(g, 40, 1)
	if err != nil {
		b.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	empty := ms.HeapAlloc
	for _, unload := range []bool{false, true, false} {
		if err := loadBackups(other, load, unload); err != nil {
			b.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	held := float64(ms.HeapAlloc) - float64(empty)
	runtime.KeepAlive(other)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(more)
		id := ConnID(len(load) + 1 + k)
		if err := db.RegisterBackupPath(id, more[k].backup, more[k].lset); err != nil {
			b.Fatal(err)
		}
		if err := db.ReleaseBackupPath(id, more[k].backup); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(backupLinks)/float64(db.n), "backups/link")
	b.ReportMetric(float64(entries)/float64(db.n), "entries/link")
	b.ReportMetric(held/float64(backupLinks), "B/backup-link")
}
