package lsdb

// This file holds the APLV counter storage. APLV_l is populated only at
// indices of links whose primaries have backups through l, so a dense
// []int32 per link is O(links²) memory that is overwhelmingly zero on a
// large network. Each link therefore starts as a sorted pair list of its
// nonzero entries and is up-converted, one way, to the dense array once
// the list passes aplvDenseAt entries. The choice is made per link from
// what the code observes; no caller selects it.
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
// entries as parallel sorted slices with idx[k] the link ID and val[k]
// its counter. Iteration over the sparse form follows ascending idx, so
// every derived artifact (CV bytes, maxima) is deterministic.
type aplvCounters struct {
	dense []int32
	idx   []int32
	val   []int32
}

// at returns the counter for link j.
func (c *aplvCounters) at(j int) int32 {
	if c.dense != nil {
		return c.dense[j]
	}
	if k, ok := searchI32(c.idx, int32(j)); ok {
		return c.val[k]
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
	k, ok := searchI32(c.idx, int32(j))
	if ok {
		c.val[k]++
		return c.val[k]
	}
	c.idx = append(c.idx, 0)
	copy(c.idx[k+1:], c.idx[k:])
	c.idx[k] = int32(j)
	c.val = append(c.val, 0)
	copy(c.val[k+1:], c.val[k:])
	c.val[k] = 1
	if denseAt >= 0 && len(c.idx) > denseAt {
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
	k, _ := searchI32(c.idx, int32(j))
	c.val[k]--
	if v := c.val[k]; v != 0 {
		return v
	}
	copy(c.idx[k:], c.idx[k+1:])
	c.idx = c.idx[:len(c.idx)-1]
	copy(c.val[k:], c.val[k+1:])
	c.val = c.val[:len(c.val)-1]
	return 0
}

// maxVal returns max_j APLV[j]. The sparse form scans only the nonzero
// entries: O(backups actually conflicting) rather than O(links).
func (c *aplvCounters) maxVal() int {
	m := int32(0)
	if c.dense != nil {
		for _, v := range c.dense {
			if v > m {
				m = v
			}
		}
		return int(m)
	}
	for _, v := range c.val {
		if v > m {
			m = v
		}
	}
	return int(m)
}

// toDense converts the counters to the dense form in place (one-way).
func (c *aplvCounters) toDense(n int) {
	d := make([]int32, n)
	for k, j := range c.idx {
		d[j] = c.val[k]
	}
	c.dense = d
	c.idx = nil
	c.val = nil
}

// searchI32 returns the position of v in the sorted slice a, or the
// insertion point with found=false.
func searchI32(a []int32, v int32) (int, bool) {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(a) && a[lo] == v
}
