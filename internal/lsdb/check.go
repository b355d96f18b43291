package lsdb

import (
	"fmt"
	"slices"
)

// Check re-derives from first principles everything the database keeps up
// to date beside its registries, and returns an error naming the first
// drift it finds, or nil:
//
//   - every link's backup registry lists its connections in strictly
//     increasing ID order;
//   - the LSETs a link's registry stores fold to its APLV, ‖APLV‖₁ and
//     max_j APLV[j], and a pair list holds exactly the nonzero counters,
//     ascending;
//   - for every primary link j the posting list post[j] holds exactly the
//     links l with APLV_l[j] > 0, each once;
//   - every link's primaries list — what failure evaluation reads in place
//     of a scan over the connections — holds each ID once and accounts for
//     the link's primary bandwidth;
//   - the running prime and spare totals equal the per-link sums.
//
// It costs O(links + stored entries) — registry LSET entries, APLV slots,
// postings, primaries — in time and scratch, so it can run after every
// event. Spare is not held to max_j APLV[j]·unit: it is resized by backup
// operations only, so a primary release can leave it below that until the
// link's next backup operation.
func (db *DB) Check() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := db.n
	folded := make([]int32, n) // one link's APLV, folded from its registry; zeroed as it is matched
	column := make([]int, n)   // column[j]: links whose APLV counts link j
	var ids []ConnID
	prime, spare := 0, 0
	for l := range db.links {
		s := &db.links[l]
		prime += s.prime
		spare += s.spare
		for k := 1; k < len(s.backups); k++ {
			if s.backups[k-1].id >= s.backups[k].id {
				return fmt.Errorf("lsdb: link %d registry lists connection %d before %d", l, s.backups[k-1].id, s.backups[k].id)
			}
		}
		if want := len(s.primaries) * db.unitBW; s.prime != want {
			return fmt.Errorf("lsdb: link %d has prime %d, its %d primaries account for %d", l, s.prime, len(s.primaries), want)
		}
		ids = append(ids[:0], s.primaries...)
		slices.Sort(ids)
		for k := 1; k < len(ids); k++ {
			if ids[k-1] == ids[k] {
				return fmt.Errorf("lsdb: link %d primaries %v list connection %d twice", l, s.primaries, ids[k])
			}
		}

		norm := 0
		for _, b := range s.backups {
			for _, pl := range b.lset {
				if pl < 0 || int(pl) >= n {
					return fmt.Errorf("lsdb: link %d stores LSET entry %d for connection %d, out of range [0,%d)", l, pl, b.id, n)
				}
				folded[pl]++
			}
			norm += len(b.lset)
		}
		maxElem := 0
		for k, e := range s.aplv {
			j, c := pairLink(e), pairCount(e)
			if k > 0 && pairLink(s.aplv[k-1]) >= j {
				return fmt.Errorf("lsdb: link %d pair list holds link %d after link %d", l, j, pairLink(s.aplv[k-1]))
			}
			if j >= n || c == 0 || int32(c) != folded[j] {
				want := int32(0)
				if j < n {
					want = folded[j]
				}
				return fmt.Errorf("lsdb: link %d pair list holds APLV[%d] = %d, its registry's LSETs give %d", l, j, c, want)
			}
			column[j]++
			folded[j] = 0
			maxElem = max(maxElem, c)
		}
		// Whatever the APLV did not match is still in folded.
		for _, b := range s.backups {
			for _, pl := range b.lset {
				if folded[pl] != 0 {
					return fmt.Errorf("lsdb: APLV_%d[%d] = 0, its registry's LSETs give %d", l, pl, folded[pl])
				}
			}
		}
		if s.norm != norm || s.maxElem != maxElem {
			return fmt.Errorf("lsdb: link %d has norm %d and max %d, its registry's LSETs give %d and %d", l, s.norm, s.maxElem, norm, maxElem)
		}
	}

	// Transpose the APLVs: byCol[start[j]:start[j+1]] lists the links
	// whose APLV counts link j. column becomes each list's fill cursor.
	start := make([]int, n+1)
	for j, c := range column {
		start[j+1] = start[j] + c
	}
	copy(column, start)
	byCol := make([]int32, start[n])
	for l := range db.links {
		for _, e := range db.links[l].aplv {
			j := pairLink(e)
			byCol[column[j]] = int32(l)
			column[j]++
		}
	}
	// seen[l] == j+1 once post[j] has listed l.
	seen := make([]int, n)
	for j := range db.links {
		post, want := db.links[j].post, byCol[start[j]:start[j+1]]
		if len(post) != len(want) {
			return fmt.Errorf("lsdb: post[%d] = %v, the APLVs counting link %d are those of links %v", j, post, j, want)
		}
		for _, l := range post {
			if l < 0 || int(l) >= n {
				return fmt.Errorf("lsdb: post[%d] = %v lists link %d, out of range [0,%d)", j, post, l, n)
			}
			if seen[l] == j+1 {
				return fmt.Errorf("lsdb: post[%d] = %v lists link %d twice", j, post, l)
			}
			seen[l] = j + 1
		}
		for _, l := range want {
			if seen[l] != j+1 {
				return fmt.Errorf("lsdb: post[%d] = %v lacks link %d, whose APLV counts link %d", j, post, l, j)
			}
		}
	}
	if db.totalPrime != prime || db.totalSpare != spare {
		return fmt.Errorf("lsdb: running totals prime=%d spare=%d, per-link sums %d and %d", db.totalPrime, db.totalSpare, prime, spare)
	}
	return nil
}
