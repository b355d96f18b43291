package lsdb

import (
	"fmt"
	"slices"

	"github.com/rtcl/drtp/internal/graph"
)

// This file holds the APLV counter storage and the two folds that keep it:
// a registration adds its primary's LSET to the APLVs of its backup links,
// a release or promotion subtracts it. APLV_l is nonzero only at the links
// of primaries whose backups cross l, so a dense []int32 per link is
// O(links²) memory that is overwhelmingly zero on a large network.
//
// The matrix is stored once, by column: link j keeps the links l whose
// APLV counts j, ascending, packed one uint32 per entry — l in the high
// bits, APLV_l[j] in the low cbits — so ordering the entries orders the
// links and a column is one allocation and one run of cache lines. The
// split is fixed per database from its link count n: cbits = 32 −
// bits.Len(n), so every link ID, and n itself, fits above the count (24
// count bits at 180 links, 19 at 6 000, 17 at 30 000). A registration
// raises no counter of a link's APLV by more than its LSET's length, so
// checkRegisterLocked refuses one that could lift the link's maximum past
// maxCount = 1<<cbits − 1, before anything is mutated: a counter never
// carries into its link. D-LSR's cost Σ_{j∈LSET} c_{l,j} reads by column
// (ConflictCountsInto). A row is not stored: APLV_l[j] is the number of
// l's registrations whose LSET holds j, with multiplicity, and the readers
// of a whole row (APLV, AppendCV, the maximum's recount) fold it from l's
// registry. The folds walk a column by whole entries against a link's key
// l<<cbits — link l's entry is key + its count — so a step costs a
// comparison and a count a subtraction, not an unpack. cbits and maxCount
// are read into locals once per fold, not from db once per entry, and
// cbits is masked to below 32, which it is, so that its shifts need no
// range check: the loops keep few values live, which spill less.
//
// A database that owns every link keeps one column per link, at its ID. A
// router's owns a few links, and keeps a column only for each link that
// some owned link's LSETs name, in a sorted map: the links ascending in
// colKeys, their columns beside them in cols. A fold finds a column by
// binary search, adds the ones it lacks and drops the ones a release
// empties, so the map holds what the owned links' registrations name and
// nothing else. A dense index from every link to its column, assigned on
// first touch, would find a column in one load, but would cost 4 bytes
// per network link in every router: 24 KB of a router's 32 KB budget at
// 2 000 nodes (6 000 links), before its first registration.
//
// A fold takes the LSET and the path's links sorted and visits each column
// the LSET names once, a run of a repeated link as one step: a
// registration raises the entries the column holds and counts the ones it
// lacks, grows it once by a quarter (and at least 4, where append would
// double it) and merges them in from the back; a release subtracts and
// compacts the zeroed entries out, and a column left at a quarter of its
// capacity is halved (shrink, lsdb.go).
//
// BenchmarkBackupPath (register + release of a backup and its LSET; ns/op
// and B/backup-link held, medians of five alternating runs on a 2-core
// VM), 8-byte entries (l<<32 | count) against 4-byte ones:
//
//	links    8 B entries              4 B entries
//	180      2 852 ns, 36.0 B         3 082 ns, 26.2 B
//	6000     9 071 ns, 104.4 B        8 806 ns, 69.9 B
//	30000    9 163 ns, 106.2 B        8 828 ns, 70.6 B
//
// Runs of one side spread by ±20 % on that VM: ten further pairs at 180
// links alone read 3 414 against 3 387 ns, and paper_sweep's
// establishment latencies stay flat (EXPERIMENTS.md X9). Both allocate
// once per register + release, the LSET clone.

// aplvAtLocked returns APLV_l[j], link l's entry in column j, found by a
// binary search on whole entries: every entry of link l is at least
// l<<cbits and every entry of a smaller link below it. The caller must
// hold db.mu.
func (db *DB) aplvAtLocked(l, j graph.LinkID) int {
	x, ok := db.colAt(j)
	if !ok {
		return 0
	}
	c := db.cols[x]
	if k, _ := slices.BinarySearch(c, uint32(l)<<db.cbits); k < len(c) && c[k]>>db.cbits == uint32(l) {
		return int(c[k] & db.maxCount)
	}
	return 0
}

// colAt returns the index in db.cols of link j's column, and whether it
// exists; where it does not, the index is where it belongs. A database
// that owns every link keeps every column, at the link's ID. The caller
// must hold db.mu.
func (db *DB) colAt(j graph.LinkID) (int, bool) {
	if db.owned == nil {
		return int(j), true
	}
	return db.ownedColAt(j)
}

// ownedColAt is colAt for a database that does not own every link, kept
// out of colAt so that the simulator's folds inline the identity.
//
//go:noinline
func (db *DB) ownedColAt(j graph.LinkID) (int, bool) {
	return slices.BinarySearch(db.colKeys, j)
}

// colLink returns the link whose column is at index x.
func (db *DB) colLink(x int) graph.LinkID {
	if db.owned == nil {
		return graph.LinkID(x)
	}
	return db.colKeys[x]
}

// addColLocked makes an empty column for link j at index x, where colAt
// placed it, on a spare array if there is one. The caller must hold db.mu.
func (db *DB) addColLocked(x int, j graph.LinkID) {
	var col []uint32
	if k := len(db.spareCols) - 1; k >= 0 {
		col, db.spareCols = db.spareCols[k], db.spareCols[:k]
	}
	db.colKeys = append(db.colKeys, 0)
	copy(db.colKeys[x+1:], db.colKeys[x:])
	db.colKeys[x] = j
	db.cols = append(db.cols, nil)
	copy(db.cols[x+1:], db.cols[x:])
	db.cols[x] = col
}

// dropColLocked removes the column at index x, which a release emptied,
// from a database that does not own every link, and keeps its array
// spare unless enough are. The caller must hold db.mu.
func (db *DB) dropColLocked(x int) {
	if col := db.cols[x]; len(db.spareCols) < keepRoute && cap(col) <= keepRoute {
		db.spareCols = append(db.spareCols, col[:0])
	}
	last := len(db.cols) - 1
	copy(db.colKeys[x:], db.colKeys[x+1:])
	copy(db.cols[x:], db.cols[x+1:])
	db.cols[last] = nil
	db.colKeys = shrink(db.colKeys[:last], keepRoute)
	db.cols = shrink(db.cols[:last], keepRoute)
}

// runAt returns the link at sorted[i] and the length of its run.
func runAt(sorted []graph.LinkID, i int) (j, c int) {
	c = 1
	for i+c < len(sorted) && sorted[i+c] == sorted[i] {
		c++
	}
	return int(sorted[i]), c
}

// sortedLSETLocked returns the LSET in table slot h in ascending order, or
// an error naming its first entry (in the LSET's order) outside the
// network: an LSET arrives off the wire, so it is checked before anything
// is mutated. The result lives in the database's scratch and holds until
// the next call. A slot's LSET never changes while the slot is live, so
// the scratch remembers which slot it was sorted from (a freed slot is
// forgotten, unrefLSETLocked), and the links of a path that share one
// LSET check and sort it once. The caller must hold db.mu.
func (db *DB) sortedLSETLocked(h uint32) ([]graph.LinkID, error) {
	if h == db.sortedFrom {
		return db.sortedLSET, nil
	}
	lset := db.lsets[h].links
	for _, pl := range lset {
		if pl < 0 || int(pl) >= db.n {
			return nil, fmt.Errorf("lsdb: LSET entry %d out of range [0,%d)", pl, db.n)
		}
	}
	db.sortedLSET = append(db.sortedLSET[:0], lset...)
	slices.Sort(db.sortedLSET)
	db.sortedFrom = h
	return db.sortedLSET, nil
}

// sortedPathLocked returns the links of a path in ascending order, in the
// database's scratch until the next call (a one-link path is its own), and
// whether a link is named twice. The caller must hold db.mu.
func (db *DB) sortedPathLocked(links []graph.LinkID) (path []graph.LinkID, twice bool) {
	if len(links) == 1 {
		return links, false
	}
	path = append(db.sortedPath[:0], links...)
	slices.Sort(path)
	db.sortedPath = path
	for k := 1; k < len(path); k++ {
		if path[k] == path[k-1] {
			return path, true
		}
	}
	return path, false
}

// raiseMax accounts for a counter of the link's APLV that rose to v.
func (s *linkState) raiseMax(v int) {
	switch m := int(s.maxElem); {
	case v > m:
		s.maxElem, s.atMax = int32(v), 1
	case v == m && s.atMax > 0:
		s.atMax++
	}
}

// lowerMax accounts for a counter of the link's APLV that falls from v by
// c. When the last counter at the maximum falls by one, the value below is
// the maximum, shared by a number of counters not known (atMax -1) until
// one at it falls again; any other fall of the last counter at the
// maximum leaves atMax 0, for foldOutLocked to recount.
func (s *linkState) lowerMax(v, c int) {
	switch {
	case v != int(s.maxElem):
	case s.atMax > 1:
		s.atMax--
	case s.atMax == 1 && c == 1 && v > 1:
		s.maxElem, s.atMax = s.maxElem-1, -1
	default:
		s.atMax = 0
	}
}

// foldInLocked adds the sorted LSET to the APLV of every link of path,
// ascending and each once, and keeps their maxima; the caller keeps their
// norms and has checked that no counter passes maxCount. The caller must
// hold db.mu.
func (db *DB) foldInLocked(path, sorted []graph.LinkID) {
	if len(path) == 0 {
		return // a rollback of nothing makes no column
	}
	cbits, maxCount := db.cbits&31, db.maxCount
	for i := 0; i < len(sorted); {
		j, c := runAt(sorted, i)
		i += c
		x, ok := db.colAt(graph.LinkID(j))
		if !ok {
			db.addColLocked(x, graph.LinkID(j))
		}
		col := db.cols[x]
		missing, k := 0, 0
		for _, l := range path {
			key := uint32(l) << cbits
			for k < len(col) && col[k] < key {
				k++
			}
			if k == len(col) || col[k]-key > maxCount {
				missing++
				continue
			}
			col[k] += uint32(c)
			db.at(l).raiseMax(int(col[k] - key))
			k++
		}
		if missing == 0 {
			continue
		}
		r, n := len(col)-1, len(col)+missing
		if n > cap(col) {
			col = append(make([]uint32, 0, max(n, len(col)+max(len(col)/4, 4))), col...)
		}
		col = col[:n]
		// Merge from the back: an entry the column held was raised above.
		w := len(col) - 1
		for x := len(path) - 1; x >= 0; x-- {
			l := path[x]
			key := uint32(l) << cbits
			for ; r >= 0 && col[r] > key|maxCount; r-- {
				col[w] = col[r]
				w--
			}
			if r >= 0 && col[r]&^maxCount == key {
				col[w] = col[r]
				w, r = w-1, r-1
				continue
			}
			col[w] = key | uint32(c)
			w--
			db.at(l).raiseMax(c)
		}
		db.cols[x] = col
	}
}

// foldOutLocked subtracts the sorted LSET from the APLV of every link of
// path, ascending and each once, whose registry no longer holds the
// registrations being removed, and keeps their maxima — recounted from the
// registry only where lowerMax cannot tell them; the caller keeps their
// norms. Every LSET entry must be counted. The caller must hold db.mu.
func (db *DB) foldOutLocked(path, sorted []graph.LinkID) {
	if len(path) == 0 {
		return
	}
	cbits, maxCount := db.cbits&31, db.maxCount
	for i := 0; i < len(sorted); {
		j, c := runAt(sorted, i)
		i += c
		x, _ := db.colAt(graph.LinkID(j))
		col := db.cols[x]
		zeroed := -1 // position of the first zeroed entry
		k := 0
		for _, l := range path {
			key := uint32(l) << cbits
			for col[k] < key {
				k++
			}
			v := int(col[k] - key)
			db.at(l).lowerMax(v, c)
			if col[k] -= uint32(c); v == c && zeroed < 0 {
				zeroed = k
			}
			k++
		}
		if zeroed < 0 {
			continue
		}
		w := zeroed
		for _, e := range col[zeroed+1:] {
			if e&maxCount != 0 {
				col[w] = e
				w++
			}
		}
		if w == 0 && db.owned != nil {
			db.dropColLocked(x)
			continue
		}
		db.cols[x] = shrink(col[:w], keepRoute)
	}
	for _, l := range path {
		if s := db.at(l); s.atMax == 0 && s.maxElem > 0 {
			db.recountMaxLocked(s)
		}
	}
}

// recountMaxLocked sets the link's maximum and the number of its counters
// at it from its registry, folding its LSETs into the database's dense
// scratch, one counter per column, and clearing it after — whole where
// that is the shorter walk, on small networks: O(‖APLV‖₁). The caller
// must hold db.mu.
func (db *DB) recountMaxLocked(s *linkState) {
	if len(db.recount) < len(db.cols) {
		db.recount = make([]int32, len(db.cols))
	}
	var m, at int32
	for _, h := range s.backups {
		for _, j := range db.lsets[h].links {
			x, _ := db.colAt(j)
			db.recount[x]++
			switch v := db.recount[x]; {
			case v > m:
				m, at = v, 1
			case v == m:
				at++
			}
		}
	}
	if 16*s.norm >= len(db.cols) {
		clear(db.recount)
	} else {
		for _, h := range s.backups {
			for _, j := range db.lsets[h].links {
				x, _ := db.colAt(j)
				db.recount[x] = 0
			}
		}
	}
	s.maxElem, s.atMax = m, at
}
