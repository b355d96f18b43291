package lsdb

import (
	"fmt"
	"slices"

	"github.com/rtcl/drtp/internal/graph"
)

// This file holds the APLV counter storage and the two folds that keep it:
// a registration adds its primary's LSET to the link's APLV, a release or
// promotion subtracts it. APLV_l is populated only at indices of links
// whose primaries have backups through l, so a dense []int32 per link is
// O(links²) memory that is overwhelmingly zero on a large network. Each
// link therefore keeps a sorted pair list of its nonzero entries, packed
// one uint64 per entry — the link ID j in the high word, its counter in
// the low word, so ordering the words orders the IDs and a row is one
// allocation and one run of cache lines. It is the one form at every
// scale. At 60 nodes, where rows pass a quarter of the links, dense rows
// for the long lists folded faster (paper_sweep establishes ≈ 9 % more
// per second with them, EXPERIMENTS.md X9); that is the price of one
// representation.
//
// A fold reads the LSET sorted (sortedLSETLocked, once per path when the
// path's links share the stored LSET) and walks it beside the row in one
// pass, a run of a repeated link as one step. A registration raises the
// pairs the row holds in place and collects the ones it lacks; the row
// grows once and takes them in one merge from the back. A release
// subtracts in place and compacts the zeroed pairs out in one pass. The
// pair list follows the load both ways: a zeroed entry is removed, and a
// row left at a quarter of its capacity is halved until it is not, down to
// the room one request needs (shrink, lsdb.go), so a row holds what the
// link carries now, not its high-water mark.
//
// BenchmarkBackupPath (register + release of a 9-hop backup with a 9-link
// LSET at scale_2k's steady state; medians of five alternating runs on a
// 2-core VM), against a binary-search insertion or deletion per LSET
// entry:
//
//	links    per entry                      one-pass fold
//	6000     20.6 µs, 196 B/backup-link     12.8 µs, 187 B/backup-link
//	30000    25.2 µs, 199 B/backup-link     14.7 µs, 190 B/backup-link
//
// Both allocate once per register + release, the LSET clone.

// aplvCounters holds one link's APLV: its nonzero entries, ascending by
// link ID, each packed as j<<32 | count (pairLink, pairCount). Iteration
// follows ascending j, so every derived artifact (CV bytes, maxima) is
// deterministic.
type aplvCounters []uint64

// pairLink and pairCount unpack a pair-list entry.
func pairLink(e uint64) int  { return int(e >> 32) }
func pairCount(e uint64) int { return int(uint32(e)) }

// at returns the counter for link j.
func (c aplvCounters) at(j int) int32 {
	if k, ok := searchPairs(c, j); ok {
		return int32(pairCount(c[k]))
	}
	return 0
}

// maxVal returns max_j APLV[j], scanning only the nonzero entries:
// O(backups actually conflicting) rather than O(links).
func (c aplvCounters) maxVal() int {
	m := 0
	for _, e := range c {
		m = max(m, pairCount(e))
	}
	return m
}

// searchPairs returns the position of link j's entry in the sorted pair
// list a, or the insertion point with found=false. Every entry of link j
// is at least j<<32 and every entry of a smaller link below it, so the
// search runs on whole words.
func searchPairs(a []uint64, j int) (int, bool) {
	k, _ := slices.BinarySearch(a, uint64(j)<<32)
	return k, k < len(a) && pairLink(a[k]) == j
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

// foldInLocked adds the sorted LSET to link l's APLV, ‖APLV‖₁ and maximum,
// entering l in the posting list of every primary link whose counter
// leaves zero. One forward pass raises the pairs the row holds and
// collects the ones it lacks; the row then grows once and takes them in
// one merge from the back. The caller must hold db.mu.
func (db *DB) foldInLocked(l graph.LinkID, sorted []graph.LinkID) {
	s := &db.links[l]
	s.norm += len(sorted)
	if cap(db.addedPairs) < len(sorted) {
		db.addedPairs = make([]uint64, 0, len(sorted))
	}
	p, added := s.aplv, db.addedPairs[:0]
	k := 0
	for i := 0; i < len(sorted); {
		j, c := runAt(sorted, i)
		i += c
		for k < len(p) && pairLink(p[k]) < j {
			k++
		}
		if k < len(p) && pairLink(p[k]) == j {
			p[k] += uint64(c)
			s.maxElem = max(s.maxElem, pairCount(p[k]))
			continue
		}
		added = append(added, uint64(j)<<32|uint64(c))
		q := &db.links[j]
		q.post = appendPosting(q.post, int32(l))
		s.maxElem = max(s.maxElem, c)
	}
	db.addedPairs = added
	if len(added) == 0 {
		return
	}
	// Merge from the back: an added pair's link is in no old pair, so
	// whole words order as their links do.
	i := len(p) - 1
	p = append(p, added...)
	w := len(p) - 1
	for r := len(added) - 1; r >= 0; r-- {
		for ; i >= 0 && p[i] > added[r]; i-- {
			p[w] = p[i]
			w--
		}
		p[w] = added[r]
		w--
	}
	s.aplv = p
}

// foldOutLocked subtracts the sorted LSET from link l's APLV, ‖APLV‖₁ and
// maximum — recomputed only when a counter at the maximum decreased — and
// removes l from the posting list of every primary link whose counter
// returns to zero. The zeroed pairs are dropped in one compaction pass and
// idle capacity is given back. Every LSET entry must be counted in the
// APLV. The caller must hold db.mu.
func (db *DB) foldOutLocked(l graph.LinkID, sorted []graph.LinkID) {
	s := &db.links[l]
	s.norm -= len(sorted)
	p := s.aplv
	recompute := false
	zeroed := -1 // position of the first zeroed entry
	k := 0
	for i := 0; i < len(sorted); {
		j, c := runAt(sorted, i)
		i += c
		for pairLink(p[k]) < j {
			k++
		}
		if pairCount(p[k]) == s.maxElem {
			recompute = true
		}
		p[k] -= uint64(c)
		if pairCount(p[k]) == 0 {
			db.dropPostingLocked(graph.LinkID(j), l)
			if zeroed < 0 {
				zeroed = k
			}
		}
	}
	if zeroed >= 0 {
		w := zeroed
		for _, e := range p[zeroed+1:] {
			if pairCount(e) != 0 {
				p[w] = e
				w++
			}
		}
		s.aplv = shrink(p[:w], keepRoute)
	}
	if recompute {
		s.maxElem = s.aplv.maxVal()
	}
}

// dropPostingLocked removes link l from primary link j's posting list.
// The caller must hold db.mu.
func (db *DB) dropPostingLocked(j, l graph.LinkID) {
	p := &db.links[j]
	p.post = shrink(swapRemove(p.post, slices.Index(p.post, int32(l))), keepRoute)
}
