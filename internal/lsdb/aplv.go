package lsdb

import "slices"

// This file holds the APLV counter storage. APLV_l is populated only at
// indices of links whose primaries have backups through l, so a dense
// []int32 per link is O(links²) memory that is overwhelmingly zero on a
// large network. Each link therefore starts as a sorted pair list of its
// nonzero entries, packed one uint64 per entry — the link ID j in the high
// word, its counter in the low word, so ordering the words orders the IDs
// and a row is one allocation and one run of cache lines — and is
// up-converted, one way, to the dense array once the list passes
// aplvDenseAt entries. The choice is made per link from what the code
// observes; no caller selects it. The pair list follows the load both
// ways: an entry whose counter returns to zero is removed, and a removal
// that leaves the list at a quarter of its capacity halves the capacity,
// down to the room one request needs (shrink, lsdb.go), so a row holds
// what the link carries now, not its high-water mark.
//
// Both forms earn their place (bench/run.sh, 15 s, five alternating pairs
// against a build that never up-converts):
//
//	workload     metric            pair lists only   with up-convert
//	paper_sweep  establish_per_s   33.6-36.7 k       44.7-48.1 k
//	paper_sweep  establish_p90_us  43-51             19-22
//	scale_2k     establish_per_s   709 / 713         702 / 671
//	scale_2k     live_heap_mb      7.3               7.3
//
// At paper scale (60 nodes) links carry hundreds of backups and the
// binary-search insertions of a long pair list cost a quarter of the
// establishment rate; at 2 000 nodes almost no link reaches the
// threshold, so the dense form costs nothing there.

// aplvDenseMaxEntries caps the up-convert threshold: past 4096 nonzero
// entries the pair list's binary-search insertions stop beating the dense
// array even on huge networks.
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

// inc increments the counter for link j and returns the new value.
// denseAt is the up-convert threshold (DB.aplvDenseAt); n is the network's
// link count, needed for the dense allocation.
func (c *aplvCounters) inc(j, denseAt, n int) int32 {
	if c.dense != nil {
		c.dense[j]++
		return c.dense[j]
	}
	k, ok := searchPairs(c.pairs, j)
	if ok {
		c.pairs[k]++
		return int32(pairCount(c.pairs[k]))
	}
	c.pairs = slices.Insert(c.pairs, k, uint64(j)<<32|1)
	if denseAt >= 0 && len(c.pairs) > denseAt {
		c.toDense(n)
	}
	return 1
}

// dec decrements the counter for link j (which must be positive) and
// returns the new value. A sparse entry reaching zero is removed, so the
// pair list is always exactly the nonzero set.
func (c *aplvCounters) dec(j int) int32 {
	if c.dense != nil {
		c.dense[j]--
		return c.dense[j]
	}
	k, _ := searchPairs(c.pairs, j)
	c.pairs[k]--
	if v := pairCount(c.pairs[k]); v != 0 {
		return int32(v)
	}
	c.pairs = shrink(slices.Delete(c.pairs, k, k+1), keepRoute)
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
