package lsdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/topology"
)

// aplvOracle is the map model the property tests hold the database to:
// per-link counters and the registry that produced them.
type aplvOracle struct {
	n      int
	counts []map[graph.LinkID]int
	lsets  []map[ConnID][]graph.LinkID
}

func newAPLVOracle(n int) *aplvOracle {
	o := &aplvOracle{n: n}
	for l := 0; l < n; l++ {
		o.counts = append(o.counts, map[graph.LinkID]int{})
		o.lsets = append(o.lsets, map[ConnID][]graph.LinkID{})
	}
	return o
}

func (o *aplvOracle) register(id ConnID, l graph.LinkID, lset []graph.LinkID) {
	o.lsets[l][id] = slices.Clone(lset)
	for _, j := range lset {
		o.counts[l][j]++
	}
}

func (o *aplvOracle) release(id ConnID, l graph.LinkID) {
	for _, j := range o.lsets[l][id] {
		if o.counts[l][j]--; o.counts[l][j] == 0 {
			delete(o.counts[l], j)
		}
	}
	delete(o.lsets[l], id)
}

func (o *aplvOracle) maxElem(l graph.LinkID) int {
	m := 0
	for _, c := range o.counts[l] {
		m = max(m, c)
	}
	return m
}

func (o *aplvOracle) cvBytes(l graph.LinkID) []byte {
	out := make([]byte, (o.n+7)/8)
	for j := range o.counts[l] {
		out[j/8] |= 1 << uint(j%8)
	}
	return out
}

func (o *aplvOracle) aplvBytes() int64 {
	var total int64
	for l := range o.counts {
		total += 4 * int64(len(o.counts[l]))
	}
	return total
}

// checkLink compares every per-link APLV read of link l with the oracle.
func (o *aplvOracle) checkLink(t *testing.T, db *DB, l graph.LinkID, step int) {
	t.Helper()
	norm, maxElem := 0, 0
	for j := 0; j < o.n; j++ {
		want := o.counts[l][graph.LinkID(j)]
		norm += want
		if want > maxElem {
			maxElem = want
		}
		if got := db.APLVAt(l, graph.LinkID(j)); got != want {
			t.Fatalf("step %d: APLVAt(%d,%d) = %d, oracle %d", step, l, j, got, want)
		}
	}
	if got := db.APLVNorm(l); got != norm {
		t.Fatalf("step %d: APLVNorm(%d) = %d, oracle %d", step, l, got, norm)
	}
	if got := db.APLVMax(l); got != maxElem {
		t.Fatalf("step %d: APLVMax(%d) = %d, oracle %d", step, l, got, maxElem)
	}
	wire := o.cvBytes(l)
	if got := db.AppendCV(l, nil); !bytes.Equal(got, wire) {
		t.Fatalf("step %d: AppendCV(%d, nil) = %x, oracle %x", step, l, got, wire)
	}
	if got := db.AppendCV(l, []byte{0xee}); got[0] != 0xee || !bytes.Equal(got[1:], wire) {
		t.Fatalf("step %d: AppendCV(%d) = %x, oracle ee%x", step, l, got, wire)
	}
	ids := db.BackupsOn(l)
	if len(ids) != len(o.lsets[l]) {
		t.Fatalf("step %d: BackupsOn(%d) = %v, oracle holds %d registrations", step, l, ids, len(o.lsets[l]))
	}
	for _, id := range ids {
		if got, want := storedLSETs(db, id)[l], o.lsets[l][id]; !slices.Equal(got, want) {
			t.Fatalf("step %d: link %d stores LSET %v for connection %d, oracle %v", step, l, got, id, want)
		}
	}
}

// checkAggregates compares the whole-database reads with the oracle.
func (o *aplvOracle) checkAggregates(t *testing.T, db *DB, lset []graph.LinkID, counts []float64, step int) []float64 {
	t.Helper()
	counts = db.ConflictCountsInto(lset, counts)
	for l := 0; l < o.n; l++ {
		want := 0
		for _, j := range lset {
			if o.counts[l][j] > 0 {
				want++
			}
		}
		if counts[l] != float64(want) {
			t.Fatalf("step %d: ConflictCountsInto(%v)[%d] = %v, oracle %d", step, lset, l, counts[l], want)
		}
	}
	if got, want := db.APLVBytes(), o.aplvBytes(); got != want {
		t.Fatalf("step %d: APLVBytes = %d, oracle %d", step, got, want)
	}
	return counts
}

// rowLen returns the number of nonzero counters in link l's APLV row.
func rowLen(db *DB, l graph.LinkID) int {
	k := 0
	for _, c := range db.APLV(l) {
		if c > 0 {
			k++
		}
	}
	return k
}

// TestAPLVLongRows drives the rows of a few hot links on the paper's
// 60-node topology (180 links) past a quarter of the links — 45 entries,
// where a dense up-convert once took rows over — and back to empty:
// random backups are registered until every hot row is that long, then
// released until nothing is left, with every APLV read checked against a
// map oracle after each operation. Cold links stay short throughout, so
// short and long rows are live in the same database.
func TestAPLVLongRows(t *testing.T) {
	g, err := topology.Waxman(topology.WaxmanConfig{Nodes: 60, AvgDegree: 3, MinDegree: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		longRows(t, g, seed)
	}
}

func longRows(t *testing.T, g *graph.Graph, seed int64) {
	t.Helper()
	n := g.NumLinks()
	long := n / 4
	// Capacity is never the constraint: no primaries are reserved, and a
	// backup registers whenever capacity - prime >= unit.
	db, err := New(g, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := newAPLVOracle(n)
	r := rand.New(rand.NewSource(seed))
	hot := []graph.LinkID{3, graph.LinkID(n / 2), graph.LinkID(n - 1)}

	type reg struct {
		id ConnID
		l  graph.LinkID
	}
	var (
		live   []reg
		nextID ConnID
		counts []float64
		step   int
	)
	randomLSET := func() []graph.LinkID {
		lset := make([]graph.LinkID, 1+r.Intn(5))
		for i := range lset {
			lset[i] = graph.LinkID(r.Intn(n))
		}
		return lset
	}
	register := func() {
		// Three in four registrations land on a hot link.
		l := graph.LinkID(r.Intn(n))
		if r.Intn(4) != 0 {
			l = hot[r.Intn(len(hot))]
		}
		nextID++
		lset := randomLSET()
		if err := db.RegisterBackup(nextID, l, lset); err != nil {
			t.Fatalf("step %d: register %d on link %d: %v", step, nextID, l, err)
		}
		o.register(nextID, l, lset)
		live = append(live, reg{nextID, l})
		o.checkLink(t, db, l, step)
		checkDerivedState(t, db, fmt.Sprintf("step %d", step))
	}
	release := func() {
		k := r.Intn(len(live))
		x := live[k]
		live[k] = live[len(live)-1]
		live = live[:len(live)-1]
		if err := db.ReleaseBackup(x.id, x.l); err != nil {
			t.Fatalf("step %d: release %d on link %d: %v", step, x.id, x.l, err)
		}
		o.release(x.id, x.l)
		o.checkLink(t, db, x.l, step)
		checkDerivedState(t, db, fmt.Sprintf("step %d", step))
	}
	allHotLong := func() bool {
		for _, l := range hot {
			if len(o.counts[l]) <= long {
				return false
			}
		}
		return true
	}

	// Up: registrations outnumber releases until every hot row holds more
	// than a quarter of the links.
	for ; !allHotLong(); step++ {
		if step > 5000 {
			t.Fatalf("hot rows never passed %d entries", long)
		}
		if len(live) > 0 && r.Intn(4) == 0 {
			release()
		} else {
			register()
		}
		counts = o.checkAggregates(t, db, randomLSET(), counts, step)
	}
	sawShortRow := false
	for l := 0; l < n; l++ {
		if k := len(o.counts[l]); k > 0 && k <= long {
			sawShortRow = true
		}
		o.checkLink(t, db, graph.LinkID(l), step)
	}
	if !sawShortRow {
		t.Fatal("no loaded link kept a short row; the test no longer covers both")
	}
	peak := db.APLVBytes()
	t.Logf("seed %d: %d links: hot rows past %d entries after %d ops with %d backups live, %d B of APLV", seed, n, long, step, len(live), peak)

	// Down: releases outnumber registrations until nothing is left.
	for ; len(live) > 0; step++ {
		if r.Intn(4) == 0 {
			register()
		} else {
			release()
		}
		counts = o.checkAggregates(t, db, randomLSET(), counts, step)
	}
	for l := 0; l < n; l++ {
		o.checkLink(t, db, graph.LinkID(l), step)
		if db.SpareBW(graph.LinkID(l)) != 0 {
			t.Fatalf("link %d keeps %d spare with no backups", l, db.SpareBW(graph.LinkID(l)))
		}
		if c := cap(db.links[l].col); c > keepRoute {
			t.Fatalf("link %d keeps an empty column of capacity %d, want at most %d", l, c, keepRoute)
		}
	}
	// The drained rows hold nothing, and the accounting says so.
	if got := db.APLVBytes(); got != 0 {
		t.Fatalf("APLVBytes = %d after draining from %d, want 0", got, peak)
	}
}

// TestPostingListRepeatedLSETEntry: an LSET naming a link twice moves its
// counter 0→1→2 on register and 2→1→0 on release; the backup link must
// enter that primary link's APLV column once and leave it once, and the
// conflict count must see the repeated entry twice, as the CV sum does.
func TestPostingListRepeatedLSETEntry(t *testing.T) {
	db := newTestDB(t, 10)
	twice := lset(2, 7, 2)
	if err := db.RegisterBackup(1, 5, twice); err != nil {
		t.Fatal(err)
	}
	checkDerivedState(t, db, "after registering 1")
	if err := db.RegisterBackup(2, 5, lset(2)); err != nil {
		t.Fatal(err)
	}
	checkDerivedState(t, db, "after registering 2")
	if got := db.ConflictCountsInto(twice, nil)[5]; got != 3 {
		t.Fatalf("ConflictCountsInto(%v)[5] = %v, want 3", twice, got)
	}
	if err := db.ReleaseBackup(2, 5); err != nil {
		t.Fatal(err)
	}
	checkDerivedState(t, db, "after releasing 2")
	if err := db.ReleaseBackup(1, 5); err != nil {
		t.Fatal(err)
	}
	checkDerivedState(t, db, "after releasing 1")
	for j := range db.links {
		if len(db.links[j].col) != 0 {
			t.Fatalf("column %d = %x with no backup registered", j, db.links[j].col)
		}
	}
}

// FuzzBackupOps decodes bytes into a sequence of RegisterBackup,
// RegisterBackupPath, ReleaseBackup, ReleaseBackupPath and
// PromoteBackupPath calls on a 3x3 grid, and after every call holds the database to the map oracle and
// to DB.Check. LSETs come out unsorted, with repeated links, with links
// outside the network and empty. Capacity never refuses a registration,
// so the model predicts every outcome: a registration fails on a duplicate
// or an out-of-range LSET, or when the LSET's length could lift the link's
// APLV maximum past what a counter holds, a release on a missing
// registration, a promotion on a missing registration or on a link with no
// spare (spare is max_j APLV[j] here), and a path call stops at its first
// failing link, rolling back the register and promote paths. Each input
// runs on the database as built and again on ones whose column entries are
// narrowed to 2, 3 and 4 count bits, where that width is soon reached.
func FuzzBackupOps(f *testing.F) {
	f.Add([]byte{
		0, 0, 3, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, // one registration fills a row of 9
		2, 0, 3, // and its release leaves it empty
	})
	f.Add([]byte{
		0, 1, 3, 3, 7, 5, 7, // a repeated link, unsorted
		0, 2, 3, 1, 7,
		2, 1, 3, // empties one pair, keeps another
		2, 2, 3, // empties the row
	})
	f.Add([]byte{
		1, 0, 3, 1, 2, 3, 4, 9, 4, 4, 0, // a path registration
		1, 1, 2, 3, 2, 2, 254, 4, // rejected: an LSET entry past the network
		4, 0, 3, 1, 2, 3, // promoted
		1, 2, 2, 5, 5, 1, 6, // a path naming one link twice rolls back
		1, 3, 2, 7, 8, 0, // an empty LSET
		4, 3, 2, 7, 8, // refused: no spare without an APLV entry
		3, 3, 2, 7, 8,
	})
	f.Add([]byte{
		0, 0, 3, 3, 1, 1, 2, // raises a counter of link 3 to 2
		1, 1, 2, 4, 3, 2, 1, 5, // at 2 count bits link 4 takes the LSET, link 3 refuses it: rolled back
		0, 2, 3, 2, 9, 10, // refused at 2 count bits
		2, 0, 3, // released: link 3's counters fall to 0
		0, 2, 3, 2, 9, 10, // admitted at every width
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, k := range []uint{0, 2, 3, 4} {
			backupOps(t, data, k)
		}
	})
}

// backupOps is one run of FuzzBackupOps on a database whose counters are
// narrowed to countBits, or as built at 0.
func backupOps(t *testing.T, data []byte, countBits uint) {
	g, err := topology.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	const capacity, ids = 16, 8 // a link's primaries stay under capacity/2
	db, err := New(g, capacity, 1)
	if err != nil {
		t.Fatal(err)
	}
	if countBits > 0 {
		narrowCounts(db, countBits)
	}
	n := db.NumLinks()
	o := newAPLVOracle(n)
	primaries := make([]map[ConnID]bool, n)
	for l := range primaries {
		primaries[l] = map[ConnID]bool{}
	}
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	links := func(k int) []graph.LinkID {
		out := make([]graph.LinkID, k)
		for i := range out {
			out[i] = graph.LinkID(next() % n)
		}
		return out
	}
	registered := func(id ConnID, l graph.LinkID) bool {
		_, ok := o.lsets[l][id]
		return ok
	}
	fits := func(l graph.LinkID, lset []graph.LinkID) bool {
		return o.maxElem(l)+len(lset) <= int(db.maxCount)
	}
	var counts []float64
	for step := 0; len(data) > 0; step++ {
		op, id := next()%5, ConnID(next()%ids+1)
		var path []graph.LinkID
		if op%2 == 0 && op != 4 {
			path = links(1)
		} else {
			path = links(next() % 4)
		}
		var lset []graph.LinkID
		inRange := true
		if op <= 1 {
			lset = make([]graph.LinkID, next()%10)
			for i := range lset {
				switch b := next(); b {
				case 255:
					lset[i] = -1
				case 254:
					lset[i] = graph.LinkID(n)
				default:
					lset[i] = graph.LinkID(b % n)
				}
				inRange = inRange && lset[i] >= 0 && int(lset[i]) < n
			}
		}
		var err error
		want := true
		switch op {
		case 0:
			err = db.RegisterBackup(id, path[0], lset)
			if want = inRange && !registered(id, path[0]) && fits(path[0], lset); want {
				o.register(id, path[0], lset)
			}
		case 1:
			err = db.RegisterBackupPath(id, path, lset)
			var done []graph.LinkID
			for _, l := range path {
				if want = inRange && !registered(id, l) && fits(l, lset); !want {
					break
				}
				o.register(id, l, lset)
				done = append(done, l)
			}
			if !want {
				for _, l := range done {
					o.release(id, l)
				}
			}
		case 2:
			err = db.ReleaseBackup(id, path[0])
			if want = registered(id, path[0]); want {
				o.release(id, path[0])
			}
		case 3:
			err = db.ReleaseBackupPath(id, path)
			for _, l := range path {
				if want = registered(id, l); !want {
					break
				}
				o.release(id, l)
			}
		case 4:
			err = db.PromoteBackupPath(id, path)
			type undo struct {
				l         graph.LinkID
				lset      []graph.LinkID
				converted bool
			}
			var done []undo
			for _, l := range path {
				shared := primaries[l][id]
				if want = registered(id, l) && (shared || o.maxElem(l) > 0); !want {
					break
				}
				primaries[l][id] = true
				done = append(done, undo{l, o.lsets[l][id], !shared})
				o.release(id, l)
			}
			if !want {
				for _, u := range done {
					if u.converted {
						delete(primaries[u.l], id)
					}
					o.register(id, u.l, u.lset)
				}
			}
		}
		if (err == nil) != want {
			t.Fatalf("step %d: op %d, connection %d, path %v, LSET %v: error %v, model expects success %v", step, op, id, path, lset, err, want)
		}
		for l := 0; l < n; l++ {
			lid := graph.LinkID(l)
			o.checkLink(t, db, lid, step)
			prime := len(primaries[l])
			if got := db.PrimeBW(lid); got != prime {
				t.Fatalf("step %d: link %d has prime %d, model %d", step, l, got, prime)
			}
			if got, want := db.SpareBW(lid), min(o.maxElem(lid), capacity-prime); got != want {
				t.Fatalf("step %d: link %d has spare %d, model %d", step, l, got, want)
			}
		}
		if !inRange {
			lset = nil
		}
		counts = o.checkAggregates(t, db, lset, counts, step)
		checkDerivedState(t, db, fmt.Sprintf("count bits %d, step %d", countBits, step))
	}
}
