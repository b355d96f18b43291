package lsdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/topology"
)

// This file is the LSDB verification tier: a differential test holding a
// database to a map model op for op (errors included), a
// deterministic first-failure rollback check, PromoteBackupPath against
// the per-link loop it replaced, and a randomized concurrent stress test
// whose final state is validated against per-link invariants recomputed
// from the workers' own logs. The concurrent test is the one the CI -race
// run exists for. All three also hold long-lived Snapshots, patched from
// the change log, to zero Snapshots filled in full (checkSnapshot).

// observableState captures everything the public API exposes for one
// link.
type observableState struct {
	capacity, prime, spare   int
	norm, maxElem, sc        int
	numBackups, numPrimaries int
	deficit                  bool
	aplv                     []int
	cv                       []byte
}

func captureLink(db *DB, l graph.LinkID) observableState {
	return observableState{
		capacity:     db.Capacity(l),
		prime:        db.PrimeBW(l),
		spare:        db.SpareBW(l),
		norm:         db.APLVNorm(l),
		maxElem:      db.APLVMax(l),
		sc:           db.SC(l),
		numBackups:   db.NumBackupsOn(l),
		numPrimaries: db.PrimariesOn(l),
		deficit:      db.HasDeficit(l),
		aplv:         db.APLV(l),
		cv:           db.AppendCV(l, nil),
	}
}

// captureAll captures every link of db.
func captureAll(db *DB) []observableState {
	out := make([]observableState, db.NumLinks())
	for l := range out {
		out[l] = captureLink(db, graph.LinkID(l))
	}
	return out
}

func diffState(a, b observableState) string {
	if a.capacity != b.capacity || a.prime != b.prime || a.spare != b.spare ||
		a.norm != b.norm || a.maxElem != b.maxElem || a.sc != b.sc ||
		a.numBackups != b.numBackups || a.numPrimaries != b.numPrimaries ||
		a.deficit != b.deficit {
		return fmt.Sprintf("scalars %+v vs %+v", a, b)
	}
	for j := range a.aplv {
		if a.aplv[j] != b.aplv[j] {
			return fmt.Sprintf("aplv[%d] %d vs %d", j, a.aplv[j], b.aplv[j])
		}
	}
	if !bytes.Equal(a.cv, b.cv) {
		return "cv wire bytes differ"
	}
	return ""
}

// checkDerivedState fails on any drift DB.Check finds between what the
// database keeps up to date beside the registries and what the registries
// imply: registry order, APLV, ‖APLV‖₁ and max folded from the stored
// LSETs, posting lists, primaries lists and the running totals.
func checkDerivedState(t *testing.T, db *DB, when string) {
	t.Helper()
	if err := db.Check(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// checkSnapshot refreshes the long-lived snapshot s from db and fails
// unless every entry equals that of a zero Snapshot filled at the same
// moment: whatever s held before — an earlier state of db patched forward,
// a state the log has since been cut past, another database's — a refresh
// must be indistinguishable from a full fill.
func checkSnapshot(t *testing.T, db *DB, s *Snapshot, when string) {
	t.Helper()
	db.SnapshotInto(s)
	fresh := db.SnapshotInto(new(Snapshot))
	if !slices.Equal(s.AvailBackup, fresh.AvailBackup) || !slices.Equal(s.Free, fresh.Free) || !slices.Equal(s.Norm, fresh.Norm) {
		t.Fatalf("%s: refreshed snapshot differs from a fresh fill:\nAvailBackup %v\n      fresh %v\nFree %v\nfresh %v\nNorm %v\nfresh %v",
			when, s.AvailBackup, fresh.AvailBackup, s.Free, fresh.Free, s.Norm, fresh.Norm)
	}
}

// randomWalk returns a short loop-free random walk as link IDs.
func randomWalk(r *rand.Rand, g *graph.Graph, maxHops int) []graph.LinkID {
	node := graph.NodeID(r.Intn(g.NumNodes()))
	var path []graph.LinkID
	for hop := 0; hop < 1+r.Intn(maxHops); hop++ {
		out := g.Out(node)
		if len(out) == 0 {
			break
		}
		l := out[r.Intn(len(out))]
		dup := false
		for _, p := range path {
			if p == l {
				dup = true
			}
		}
		if dup {
			break
		}
		path = append(path, l)
		node = g.Link(l).To
	}
	return path
}

// errString renders an error for differential comparison.
func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// lsdbModel extends the APLV oracle with the bandwidth accounting, so it
// predicts every operation's outcome, error text included: the primaries
// on each link, each link's spare, which follows the database's rule —
// resized to min(max_j APLV[j], capacity − prime) units by the link's
// backup operations only — and the counters' width, maxCount, past which
// a registration must not lift a link's maximum (refused counts those
// refusals).
type lsdbModel struct {
	*aplvOracle
	capacity  int
	maxCount  int
	primaries []map[ConnID]bool
	spare     []int
	backupOps int64
	refused   int
}

func newLSDBModel(n, capacity, maxCount int) *lsdbModel {
	m := &lsdbModel{aplvOracle: newAPLVOracle(n), capacity: capacity, maxCount: maxCount, spare: make([]int, n)}
	for l := 0; l < n; l++ {
		m.primaries = append(m.primaries, map[ConnID]bool{})
	}
	return m
}

func (m *lsdbModel) prime(l graph.LinkID) int { return len(m.primaries[l]) }

func (m *lsdbModel) resize(l graph.LinkID) {
	m.spare[l] = min(m.maxElem(l), m.capacity-m.prime(l))
}

func insufficient(l graph.LinkID, have int) error {
	return fmt.Errorf("lsdb: link %d has %d bandwidth, need 1", l, have)
}

func (m *lsdbModel) reserve(id ConnID, l graph.LinkID) error {
	if free := m.capacity - m.prime(l) - m.spare[l]; free < 1 {
		return insufficient(l, free)
	}
	if m.primaries[l][id] {
		return fmt.Errorf("lsdb: connection %d already has a primary on link %d", id, l)
	}
	m.primaries[l][id] = true
	return nil
}

func (m *lsdbModel) releasePrimary(id ConnID, l graph.LinkID) error {
	if !m.primaries[l][id] {
		return fmt.Errorf("lsdb: connection %d has no primary on link %d", id, l)
	}
	delete(m.primaries[l], id)
	return nil
}

func (m *lsdbModel) attach(id ConnID, l graph.LinkID, lset []graph.LinkID) {
	m.backupOps++
	m.register(id, l, lset)
	m.resize(l)
}

func (m *lsdbModel) detach(id ConnID, l graph.LinkID) {
	m.backupOps++
	m.release(id, l)
	m.resize(l)
}

func (m *lsdbModel) registerBackup(id ConnID, l graph.LinkID, lset []graph.LinkID) error {
	if avail := m.capacity - m.prime(l); avail < 1 {
		return insufficient(l, avail)
	}
	if _, dup := m.lsets[l][id]; dup {
		return fmt.Errorf("lsdb: connection %d already has a backup on link %d", id, l)
	}
	if maxElem := m.maxElem(l); maxElem+len(lset) > m.maxCount {
		m.refused++
		return fmt.Errorf("lsdb: an LSET of %d links could raise link %d's APLV maximum %d past %d, the most its counters hold", len(lset), l, maxElem, m.maxCount)
	}
	m.attach(id, l, lset)
	return nil
}

func (m *lsdbModel) releaseBackup(id ConnID, l graph.LinkID) error {
	if _, ok := m.lsets[l][id]; !ok {
		return fmt.Errorf("lsdb: connection %d has no backup on link %d", id, l)
	}
	m.detach(id, l)
	return nil
}

// promote returns the stored LSET and whether a spare slot was converted,
// enough for promotePath to undo it.
func (m *lsdbModel) promote(id ConnID, l graph.LinkID) ([]graph.LinkID, bool, error) {
	lset, ok := m.lsets[l][id]
	if !ok {
		return nil, false, fmt.Errorf("lsdb: connection %d has no backup on link %d", id, l)
	}
	shared := m.primaries[l][id]
	if !shared {
		if m.spare[l] < 1 {
			return nil, false, insufficient(l, m.spare[l])
		}
		m.primaries[l][id] = true
	}
	m.detach(id, l)
	return lset, !shared, nil
}

func (m *lsdbModel) reservePath(id ConnID, path []graph.LinkID) error {
	for i, l := range path {
		if err := m.reserve(id, l); err != nil {
			for _, done := range path[:i] {
				_ = m.releasePrimary(id, done)
			}
			return err
		}
	}
	return nil
}

func (m *lsdbModel) releasePrimaryPath(id ConnID, path []graph.LinkID) error {
	for _, l := range path {
		if err := m.releasePrimary(id, l); err != nil {
			return err
		}
	}
	return nil
}

func (m *lsdbModel) registerPath(id ConnID, path, lset []graph.LinkID) error {
	for i, l := range path {
		if err := m.registerBackup(id, l, lset); err != nil {
			for _, done := range path[:i] {
				_ = m.releaseBackup(id, done)
			}
			return err
		}
	}
	return nil
}

func (m *lsdbModel) releaseBackupPath(id ConnID, path []graph.LinkID) error {
	for _, l := range path {
		if err := m.releaseBackup(id, l); err != nil {
			return err
		}
	}
	return nil
}

func (m *lsdbModel) promotePath(id ConnID, path []graph.LinkID) error {
	type undo struct {
		l         graph.LinkID
		lset      []graph.LinkID
		converted bool
	}
	var done []undo
	for _, l := range path {
		lset, converted, err := m.promote(id, l)
		if err != nil {
			for _, u := range done {
				if u.converted {
					delete(m.primaries[u.l], id)
				}
				m.attach(id, u.l, u.lset)
			}
			return err
		}
		done = append(done, undo{l, lset, converted})
	}
	return nil
}

// check holds every per-link read of db and its backup-op count to the
// model.
func (m *lsdbModel) check(t *testing.T, db *DB, step int) {
	t.Helper()
	for l := 0; l < m.n; l++ {
		lid := graph.LinkID(l)
		m.checkLink(t, db, lid, step)
		if got, want := db.PrimariesOn(lid), m.prime(lid); got != want || db.PrimeBW(lid) != want {
			t.Fatalf("step %d: link %d holds %d primaries and prime %d, model %d", step, l, got, db.PrimeBW(lid), want)
		}
		for id := range m.primaries[l] {
			if !db.HasPrimary(id, lid) {
				t.Fatalf("step %d: link %d lacks connection %d's primary", step, l, id)
			}
		}
		if got, want := db.SpareBW(lid), m.spare[l]; got != want {
			t.Fatalf("step %d: link %d has spare %d, model %d", step, l, got, want)
		}
	}
	if got := db.BackupOps(); got != m.backupOps {
		t.Fatalf("step %d: %d backup ops, model %d", step, got, m.backupOps)
	}
}

// narrowCounts makes an empty database's column entries count in k bits,
// as entries of a far larger network would, so that a few registrations
// reach the width guard.
func narrowCounts(db *DB, k uint) {
	db.cbits, db.maxCount = k, 1<<k-1
}

// TestAPLVOracleDifferential drives a randomized op sequence — including
// operations destined to fail and roll back — through one database and
// the map model, asserting after every op the error the model predicts,
// every per-link read against the model, and DB.Check. Any drift in
// bookkeeping, rollback, spare sizing or CV derivation fails here before
// it can skew a simulation.
//
// It runs on the database as built and on one whose column entries are
// narrowed to 2 count bits, where the width guard refuses registrations
// the model must refuse too, with the same error (at 3 bits this fixture's
// capacity refuses registrations before any reaches the width).
//
// Three long-lived Snapshots follow the database through the same
// sequence, failed and rolled-back operations included: one refreshed after
// every op, which the log always reaches back to; one every seventh; one so
// rarely that the log is cut in between. Now and then the first is moved to
// a database in another state and to one of another size, and back.
func TestAPLVOracleDifferential(t *testing.T) {
	for _, k := range []uint{0, 2} {
		name := "as built"
		if k > 0 {
			name = fmt.Sprintf("%d count bits", k)
		}
		t.Run(name, func(t *testing.T) { oracleDifferential(t, k) })
	}
}

// oracleDifferential is TestAPLVOracleDifferential with the database's
// counters narrowed to countBits, or as built at 0.
func oracleDifferential(t *testing.T, countBits uint) {
	g, err := topology.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 3
	db, err := New(g, capacity, 1)
	if err != nil {
		t.Fatal(err)
	}
	if countBits > 0 {
		narrowCounts(db, countBits)
	}
	model := newLSDBModel(db.NumLinks(), capacity, int(db.maxCount))
	other, err := New(g, 5, 1) // same links, no entry in common with db
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RegisterBackupPath(1, []graph.LinkID{0, 1, 2}, []graph.LinkID{3, 4}); err != nil {
		t.Fatal(err)
	}
	smallGrid, err := topology.Grid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	small, err := New(smallGrid, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	strides := [3]int{1, 7, 60}
	var (
		followers [3]Snapshot
		patched   [3]int // refreshes the log still reached back to
		overrun   [3]int // refreshes more than NumLinks transitions late
		counts    []float64
		failed    int
	)
	r := rand.New(rand.NewSource(42))
	conns := []ConnID{1, 2, 3, 4, 5}
	for step := 0; step < 2000; step++ {
		id := conns[r.Intn(len(conns))]
		path := randomWalk(r, g, 4)
		if len(path) == 0 {
			continue
		}
		if step%101 == 0 {
			checkSnapshot(t, other, &followers[0], fmt.Sprintf("step %d, moved to a second database", step))
			checkSnapshot(t, small, &followers[0], fmt.Sprintf("step %d, moved to a database of another size", step))
			checkSnapshot(t, db, &followers[0], fmt.Sprintf("step %d, moved back", step))
		}
		var err, want error
		var lset []graph.LinkID
		switch r.Intn(7) {
		case 0:
			err = db.ReservePrimaryPath(id, path)
			want = model.reservePath(id, path)
		case 1:
			err = db.ReleasePrimaryPath(id, path)
			want = model.releasePrimaryPath(id, path)
		case 2:
			lset = randomWalk(r, g, 4)
			err = db.RegisterBackupPath(id, path, lset)
			want = model.registerPath(id, path, lset)
		case 3:
			err = db.ReleaseBackupPath(id, path)
			want = model.releaseBackupPath(id, path)
		case 4:
			err = db.PromoteBackup(id, path[0])
			_, _, want = model.promote(id, path[0])
		case 5:
			err = db.PromoteBackupPath(id, path)
			want = model.promotePath(id, path)
		default:
			lset = randomWalk(r, g, 3)
			err = db.RegisterBackup(id, path[0], lset)
			want = model.registerBackup(id, path[0], lset)
		}
		if errString(err) != errString(want) {
			t.Fatalf("step %d: error %q, model %q", step, errString(err), errString(want))
		}
		if err != nil {
			failed++
		}
		model.check(t, db, step)
		counts = model.checkAggregates(t, db, lset, counts, step)
		checkDerivedState(t, db, fmt.Sprintf("step %d", step))
		for k, stride := range strides {
			if step%stride != 0 {
				continue
			}
			if f := &followers[k]; f.from == db {
				if f.seq >= db.changedBase {
					patched[k]++
				}
				if db.changedBase+uint64(len(db.changed))-f.seq > uint64(db.n) {
					overrun[k]++
				}
			}
			checkSnapshot(t, db, &followers[k], fmt.Sprintf("step %d (error %q), follower of stride %d", step, errString(err), stride))
		}
	}
	if failed == 0 {
		t.Fatal("no operation failed; the test no longer covers failures and rollbacks")
	}
	if countBits > 0 && model.refused == 0 {
		t.Fatal("no registration reached the counters' width; the test no longer covers the width guard")
	}
	t.Logf("%d operations failed, each with the model's error, %d link registrations refused for the counters' width", failed, model.refused)
	if patched[0] == 0 || patched[1] == 0 || overrun[0] != 0 || overrun[2] == 0 {
		t.Fatalf("followers of strides %v: patched %v times, overrun by the log %v times; want the first two patched, the first never overrun, the last overrun",
			strides, patched, overrun)
	}
}

// TestWholePathRollbackLeavesNoTrace pins the first-failure semantics of
// the batch surface: a path whose second link cannot admit the
// reservation must roll back the first link completely and surface the
// per-link loop's exact error.
func TestWholePathRollbackLeavesNoTrace(t *testing.T) {
	g, err := topology.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	db, err := New(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := randomWalk(rand.New(rand.NewSource(7)), g, 1)
	full := path[0]
	// Saturate one link with primaries of other connections.
	if err := db.ReservePrimaryPath(90, []graph.LinkID{full}); err != nil {
		t.Fatal(err)
	}
	if err := db.ReservePrimaryPath(91, []graph.LinkID{full}); err != nil {
		t.Fatal(err)
	}
	other := graph.LinkID(0)
	if other == full {
		other = 1
	}
	before := captureAll(db)
	// follow is patched across each rollback: the links a refused path
	// call reserved and released again are logged like any other.
	var follow Snapshot
	checkSnapshot(t, db, &follow, "before the refused calls")
	// Primary reservation: second link is full.
	err = db.ReservePrimaryPath(1, []graph.LinkID{other, full})
	want := fmt.Sprintf("lsdb: link %d has 0 bandwidth, need 1", full)
	if err == nil || err.Error() != want {
		t.Fatalf("error = %v, want %q", err, want)
	}
	checkSnapshot(t, db, &follow, "after the refused reservation")
	// Backup registration: same failure link (capacity - prime = 0).
	err = db.RegisterBackupPath(1, []graph.LinkID{other, full}, []graph.LinkID{other})
	if err == nil || err.Error() != want {
		t.Fatalf("register error = %v, want %q", err, want)
	}
	checkSnapshot(t, db, &follow, "after the refused registration")
	// Duplicate-link path: the dup check fires on the repeated link and
	// rolls the first reservation back.
	err = db.ReservePrimaryPath(1, []graph.LinkID{other, other})
	wantDup := fmt.Sprintf("lsdb: connection 1 already has a primary on link %d", other)
	if err == nil || err.Error() != wantDup {
		t.Fatalf("dup error = %v, want %q", err, wantDup)
	}
	checkSnapshot(t, db, &follow, "after the duplicate-link reservation")
	for l := range before {
		if d := diffState(before[l], captureLink(db, graph.LinkID(l))); d != "" {
			t.Fatalf("rollback left a trace on link %d: %s", l, d)
		}
	}
}

// connTrack is one worker's record of a connection it currently holds.
type connTrack struct {
	primary []graph.LinkID
	backup  []graph.LinkID
	lset    []graph.LinkID // LSET as carried at registration time
}

// TestConcurrentStress hammers the whole-path batch surface —
// reserve, register, promote (the recovery first-failure path), release —
// from many goroutines over disjoint connection ID ranges, then verifies
// the database's final per-link state against invariants recomputed from
// the workers' own logs: bandwidth conservation, registry counts, APLV
// contents, the derived CV bits and the spare-sizing rule. Run under
// -race in CI, it is the lock-correctness proof of the single mutex (the
// router's DB is read from outside the router loop); a lost update, broken
// rollback, or torn whole-path batch surfaces as an invariant mismatch
// even when the race detector stays quiet.
func TestConcurrentStress(t *testing.T) {
	g, err := topology.Grid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	const (
		capacity = 4
		unit     = 1
		workers  = 8
		ops      = 400
	)
	db, err := New(g, capacity, unit)
	if err != nil {
		t.Fatal(err)
	}
	final := make([]map[ConnID]*connTrack, workers)
	// A reader keeps one snapshot patched while the workers write: the
	// change log is read and cut under the same mutex as the records.
	var (
		follow     Snapshot
		stopReader = make(chan struct{})
		readerDone = make(chan struct{})
	)
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stopReader:
				return
			default:
				db.SnapshotInto(&follow)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(1000 + w)))
			conns := make(map[ConnID]*connTrack)
			final[w] = conns
			// ids mirrors the map's keys so random selection never
			// depends on map iteration order.
			var ids []ConnID
			nextID := ConnID(w * 1_000_000)
			for i := 0; i < ops; i++ {
				switch r.Intn(4) {
				case 0, 1: // establish
					id := nextID
					nextID++
					prim := randomWalk(r, g, 4)
					if len(prim) == 0 {
						continue
					}
					if db.ReservePrimaryPath(id, prim) != nil {
						continue // rolled back; nothing held
					}
					back := randomWalk(r, g, 4)
					if len(back) == 0 || db.RegisterBackupPath(id, back, prim) != nil {
						if err := db.ReleasePrimaryPath(id, prim); err != nil {
							t.Errorf("release after failed register: %v", err)
						}
						continue
					}
					lset := append([]graph.LinkID(nil), prim...)
					conns[id] = &connTrack{primary: prim, backup: back, lset: lset}
					ids = append(ids, id)
				case 2: // promote one backup link (the recovery path)
					if len(ids) == 0 {
						continue
					}
					id := ids[r.Intn(len(ids))]
					c := conns[id]
					if len(c.backup) == 0 {
						continue
					}
					l := c.backup[r.Intn(len(c.backup))]
					if db.PromoteBackup(id, l) == nil {
						for k, bl := range c.backup {
							if bl == l {
								c.backup = append(c.backup[:k], c.backup[k+1:]...)
								break
							}
						}
						// A link shared with the primary keeps its one
						// reservation.
						if !slices.Contains(c.primary, l) {
							c.primary = append(c.primary, l)
						}
					}
				default: // teardown
					if len(ids) == 0 {
						continue
					}
					k := r.Intn(len(ids))
					id := ids[k]
					c := conns[id]
					if len(c.primary) > 0 {
						if err := db.ReleasePrimaryPath(id, c.primary); err != nil {
							t.Errorf("teardown primary: %v", err)
						}
					}
					if len(c.backup) > 0 {
						if err := db.ReleaseBackupPath(id, c.backup); err != nil {
							t.Errorf("teardown backup: %v", err)
						}
					}
					delete(conns, id)
					ids[k] = ids[len(ids)-1]
					ids = ids[:len(ids)-1]
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopReader)
	<-readerDone
	checkSnapshot(t, db, &follow, "after the workers")

	// Recompute the expected per-link state from the union of the
	// workers' surviving connections (ID ranges are disjoint, so the
	// union is exact).
	checkDerivedState(t, db, "after the workers")
	n := g.NumLinks()
	expPrim := make([]int, n)
	expBack := make([]int, n)
	expAPLV := make([][]int, n)
	for l := range expAPLV {
		expAPLV[l] = make([]int, n)
	}
	for _, conns := range final {
		for id, c := range conns {
			for _, l := range c.primary {
				expPrim[l]++
			}
			for _, l := range c.backup {
				expBack[l]++
				for _, pl := range c.lset {
					expAPLV[l][pl]++
				}
				if got := storedLSETs(db, id)[l]; !slices.Equal(got, c.lset) {
					t.Errorf("link %d: registry holds LSET %v for connection %d, it registered %v", l, got, id, c.lset)
				}
			}
		}
	}
	for l := 0; l < n; l++ {
		lid := graph.LinkID(l)
		if got, want := db.PrimariesOn(lid), expPrim[l]; got != want {
			t.Errorf("link %d: PrimariesOn = %d, want %d", l, got, want)
		}
		if got, want := db.PrimeBW(lid), expPrim[l]*unit; got != want {
			t.Errorf("link %d: PrimeBW = %d, want %d", l, got, want)
		}
		if got, want := db.NumBackupsOn(lid), expBack[l]; got != want {
			t.Errorf("link %d: NumBackupsOn = %d, want %d", l, got, want)
		}
		norm, maxElem := 0, 0
		for j, v := range expAPLV[l] {
			norm += v
			if v > maxElem {
				maxElem = v
			}
			if got := db.APLVAt(lid, graph.LinkID(j)); got != v {
				t.Errorf("link %d: APLV[%d] = %d, want %d", l, j, got, v)
			}
			if got := db.CVBit(lid, graph.LinkID(j)); got != (v > 0) {
				t.Errorf("link %d: CVBit[%d] = %v, want %v", l, j, got, v > 0)
			}
		}
		if got := db.APLVNorm(lid); got != norm {
			t.Errorf("link %d: APLVNorm = %d, want %d", l, got, norm)
		}
		if got := db.APLVMax(lid); got != maxElem {
			t.Errorf("link %d: APLVMax = %d, want %d", l, got, maxElem)
		}
		// Spare is resized only by backup ops on the link, so after a
		// later primary release it may sit below the instantaneous
		// min(maxElem·unit, room) — the exact sizing rule is pinned by
		// the serial differential test. The invariants that must hold
		// globally: spare never exceeds the multiplexing requirement,
		// never overlaps primary bandwidth, and vanishes with the
		// backups.
		spare := db.SpareBW(lid)
		if spare > maxElem*unit {
			t.Errorf("link %d: SpareBW = %d exceeds maxElem requirement %d", l, spare, maxElem*unit)
		}
		if spare+expPrim[l]*unit > capacity {
			t.Errorf("link %d: spare %d + prime %d exceeds capacity", l, spare, expPrim[l]*unit)
		}
		if maxElem == 0 && spare != 0 {
			t.Errorf("link %d: spare %d without any backup conflict", l, spare)
		}
	}
}

// TestCheckFindsDrift corrupts one piece of derived state at a time on a
// loaded database — the (link, count) pairs of an APLV column, a link's
// norm and maximum, primaries, registry order (entries swapped, an entry
// naming another slot, a slot's connection rewritten), running totals, the
// LSET table — and requires DB.Check to name it.
func TestCheckFindsDrift(t *testing.T) {
	load := func(t *testing.T) *DB {
		db := newTestDB(t, 10)
		for _, step := range []error{
			db.ReservePrimaryPath(1, lset(2, 3)),
			db.RegisterBackupPath(1, lset(5, 6), lset(2, 3)),
			db.ReservePrimaryPath(2, lset(3, 4)),
			db.RegisterBackupPath(2, lset(5, 7), lset(3, 4, 4)),
		} {
			if step != nil {
				t.Fatal(step)
			}
		}
		if err := db.Check(); err != nil {
			t.Fatalf("before corruption: %v", err)
		}
		return db
	}
	// A backup link, and a primary link both backups' LSETs name: column j
	// holds links 5, 6 and 7.
	b, j := paperLink(5), paperLink(3)
	// An entry for a link whose APLV does not count j.
	stray := func(db *DB) uint32 { return uint32(paperLink(9))<<db.cbits | 1 }
	for _, c := range []struct {
		name    string
		corrupt func(db *DB)
	}{
		{"registry order", func(db *DB) { s := &db.links[b]; s.backups[0], s.backups[1] = s.backups[1], s.backups[0] }},
		{"pair count", func(db *DB) { db.cols[j][0]++ }},
		{"pair order", func(db *DB) { p := db.cols[j]; p[0], p[1] = p[1], p[0] }},
		{"pair missing", func(db *DB) { db.cols[j] = db.cols[j][1:] }},
		{"pair past the network", func(db *DB) { db.cols[j] = append(db.cols[j], uint32(db.n)<<db.cbits|1) }},
		{"pair twice", func(db *DB) { db.cols[j] = append(db.cols[j], db.cols[j][len(db.cols[j])-1]) }},
		{"pair for a zero counter", func(db *DB) { db.cols[j] = append(db.cols[j], stray(db)) }},
		{"zeroed pair", func(db *DB) { db.cols[j] = append(db.cols[j], stray(db)-1) }},
		{"column emptied", func(db *DB) { db.cols[j] = nil }},
		{"norm", func(db *DB) { db.links[b].norm++ }},
		{"max", func(db *DB) { db.links[b].maxElem-- }},
		{"counters at the max", func(db *DB) { db.links[b].atMax++ }},
		{"primary twice", func(db *DB) {
			s := &db.links[j]
			s.primaries = append(s.primaries, s.primaries[0])
			s.prime += db.unitBW
			db.totalPrime += db.unitBW
		}},
		{"prime", func(db *DB) { db.links[j].prime += db.unitBW }},
		{"spare total", func(db *DB) { db.totalSpare++ }},
		{"registry entry names a slot out of order", func(db *DB) {
			// A slot of connection 3 with connection 1's LSET and reference:
			// link b lists connection 3 before 2, and nothing else drifts.
			s := &db.links[b]
			db.lsets[s.backups[0]].refs--
			db.lsets = append(db.lsets, lsetSlot{links: db.lsets[s.backups[0]].links, refs: 1, id: 3})
			s.backups[0] = uint32(len(db.lsets) - 1)
		}},
		{"named slot's connection rewritten", func(db *DB) { db.lsets[db.links[b].backups[0]].id = 2 }},
		{"LSET references", func(db *DB) { db.lsets[db.links[b].backups[0]].refs++ }},
		{"LSET slot freed while named", func(db *DB) { db.freeLSETs = append(db.freeLSETs, db.links[b].backups[0]) }},
		{"LSET slot live without a registration", func(db *DB) { db.lsets = append(db.lsets, lsetSlot{links: lset(2)}) }},
		{"free LSET slot holds an LSET", func(db *DB) {
			db.lsets = append(db.lsets, lsetSlot{links: lset(2)})
			db.freeLSETs = append(db.freeLSETs, uint32(len(db.lsets)-1))
		}},
		{"LSET handle past the table", func(db *DB) { db.links[b].backups[0] = uint32(len(db.lsets)) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := load(t)
			c.corrupt(db)
			if err := db.Check(); err == nil {
				t.Fatal("Check found nothing")
			} else {
				t.Log(err)
			}
		})
	}
}
