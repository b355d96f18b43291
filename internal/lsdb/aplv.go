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
// link therefore starts as a sorted pair list of its nonzero entries,
// packed one uint64 per entry — the link ID j in the high word, its
// counter in the low word, so ordering the words orders the IDs and a row
// is one allocation and one run of cache lines — and is up-converted, one
// way, to the dense array once the list passes aplvDenseAt entries. The
// choice is made per link from what the code observes; no caller selects
// it.
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
// link carries now, not its high-water mark. Dense rows fold entry by
// entry.
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
//
// The dense form earns its place at paper scale (60 nodes), where links
// carry hundreds of backups and a long pair list's merges would cost more
// than indexing; at 2 000 nodes almost no link reaches the threshold
// (EXPERIMENTS.md X9).

// aplvDenseMaxEntries caps the up-convert threshold: past 4096 nonzero
// entries a pair list's merges stop beating the dense array even on huge
// networks.
const aplvDenseMaxEntries = 4096

// aplvDenseThreshold returns the pair-list length past which a link's
// APLV becomes a dense array on a network of n links: min(n/4, 4096).
func aplvDenseThreshold(n int) int {
	return min(n/4, aplvDenseMaxEntries)
}

// aplvCounters holds one link's APLV. Exactly one form is active: dense
// (dense != nil) indexes counters by link ID; sparse keeps the nonzero
// entries in pairs, ascending, each packed as j<<32 | count (pairLink,
// pairCount). Iteration over the sparse form follows ascending j, so
// every derived artifact (CV bytes, maxima) is deterministic.
type aplvCounters struct {
	dense []int32
	pairs []uint64
}

// pairLink and pairCount unpack a pair-list entry.
func pairLink(e uint64) int  { return int(e >> 32) }
func pairCount(e uint64) int { return int(uint32(e)) }

// at returns the counter for link j.
func (c *aplvCounters) at(j int) int32 {
	if c.dense != nil {
		return c.dense[j]
	}
	if k, ok := searchPairs(c.pairs, j); ok {
		return int32(pairCount(c.pairs[k]))
	}
	return 0
}

// maxVal returns max_j APLV[j]. The sparse form scans only the nonzero
// entries: O(backups actually conflicting) rather than O(links).
func (c *aplvCounters) maxVal() int {
	m := 0
	if c.dense != nil {
		for _, v := range c.dense {
			m = max(m, int(v))
		}
		return m
	}
	for _, e := range c.pairs {
		m = max(m, pairCount(e))
	}
	return m
}

// toDense converts the counters to the dense form in place (one-way).
func (c *aplvCounters) toDense(n int) {
	d := make([]int32, n)
	for _, e := range c.pairs {
		d[pairLink(e)] = int32(pairCount(e))
	}
	c.dense = d
	c.pairs = nil
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

// sortedLSETLocked returns lset in ascending order, or an error naming its
// first entry (in lset's order) outside the network: an LSET arrives off
// the wire, so it is checked before anything is mutated. The result lives
// in the database's scratch and holds until the next call. lset must be
// one the database owns and never writes — a registration's clone, or an
// LSET its registry stores — so the scratch remembers which slice it was
// sorted from, and the links of a path that share one LSET check and sort
// it once. The caller must hold db.mu.
func (db *DB) sortedLSETLocked(lset []graph.LinkID) ([]graph.LinkID, error) {
	if len(lset) == 0 {
		return nil, nil
	}
	if len(db.sortedFrom) == len(lset) && &db.sortedFrom[0] == &lset[0] {
		return db.sortedLSET, nil
	}
	for _, pl := range lset {
		if pl < 0 || int(pl) >= db.n {
			return nil, fmt.Errorf("lsdb: LSET entry %d out of range [0,%d)", pl, db.n)
		}
	}
	db.sortedLSET = append(db.sortedLSET[:0], lset...)
	slices.Sort(db.sortedLSET)
	db.sortedFrom = lset
	return db.sortedLSET, nil
}

// foldInLocked adds the sorted LSET to link l's APLV, ‖APLV‖₁ and maximum,
// entering l in the posting list of every primary link whose counter
// leaves zero. On a pair list one forward pass raises the pairs the row
// holds and collects the ones it lacks; the row then grows once and takes
// them in one merge from the back, or, past aplvDenseAt, is up-converted
// with them. The caller must hold db.mu.
func (db *DB) foldInLocked(l graph.LinkID, sorted []graph.LinkID) {
	s := &db.links[l]
	a := &s.aplv
	s.norm += len(sorted)
	if a.dense != nil {
		for _, pl := range sorted {
			a.dense[pl]++
			v := int(a.dense[pl])
			if v == 1 {
				p := &db.links[pl]
				p.post = appendPosting(p.post, int32(l))
			}
			s.maxElem = max(s.maxElem, v)
		}
		return
	}
	if cap(db.addedPairs) < len(sorted) {
		db.addedPairs = make([]uint64, 0, len(sorted))
	}
	p, added := a.pairs, db.addedPairs[:0]
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
	switch {
	case len(added) == 0:
	case db.aplvDenseAt >= 0 && len(p)+len(added) > db.aplvDenseAt:
		a.toDense(db.n)
		for _, e := range added {
			a.dense[pairLink(e)] = int32(pairCount(e))
		}
	default:
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
		a.pairs = p
	}
}

// foldOutLocked subtracts the sorted LSET from link l's APLV, ‖APLV‖₁ and
// maximum — recomputed only when a counter at the maximum decreased — and
// removes l from the posting list of every primary link whose counter
// returns to zero. A pair list drops its zeroed entries in one compaction
// pass and gives idle capacity back. Every LSET entry must be counted in
// the APLV. The caller must hold db.mu.
func (db *DB) foldOutLocked(l graph.LinkID, sorted []graph.LinkID) {
	s := &db.links[l]
	a := &s.aplv
	s.norm -= len(sorted)
	recompute := false
	if a.dense != nil {
		for _, pl := range sorted {
			a.dense[pl]--
			v := int(a.dense[pl])
			if v+1 == s.maxElem {
				recompute = true
			}
			if v == 0 {
				db.dropPostingLocked(pl, l)
			}
		}
	} else {
		p := a.pairs
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
			a.pairs = shrink(p[:w], keepRoute)
		}
	}
	if recompute {
		s.maxElem = a.maxVal()
	}
}

// dropPostingLocked removes link l from primary link j's posting list.
// The caller must hold db.mu.
func (db *DB) dropPostingLocked(j, l graph.LinkID) {
	p := &db.links[j]
	p.post = shrink(swapRemove(p.post, slices.Index(p.post, int32(l))), keepRoute)
}
