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
//   - every LSET table slot's reference count equals the registrations
//     naming it, a slot no registration names is on the free list, once,
//     and a free slot holds no LSET;
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
	named := make([]int32, len(db.lsets)) // named[h]: registrations naming LSET table slot h
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
		for _, b := range s.backups {
			if int(b.lset) >= len(db.lsets) {
				return fmt.Errorf("lsdb: link %d registers connection %d under LSET slot %d, past the table's %d", l, b.id, b.lset, len(db.lsets))
			}
			named[b.lset]++
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
			lset := db.lsets[b.lset].links
			for _, pl := range lset {
				if pl < 0 || int(pl) >= n {
					return fmt.Errorf("lsdb: link %d stores LSET entry %d for connection %d, out of range [0,%d)", l, pl, b.id, n)
				}
				folded[pl]++
			}
			norm += len(lset)
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
			for _, pl := range db.lsets[b.lset].links {
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
	if err := db.checkLSETsLocked(named); err != nil {
		return err
	}
	if db.totalPrime != prime || db.totalSpare != spare {
		return fmt.Errorf("lsdb: running totals prime=%d spare=%d, per-link sums %d and %d", db.totalPrime, db.totalSpare, prime, spare)
	}
	return nil
}

// checkLSETsLocked holds the LSET table to named, the registrations naming
// each slot: a slot's refs equal its count, a slot with none is free —
// on the free list, once, with no LSET — and a free slot has none. The
// caller must hold db.mu.
func (db *DB) checkLSETsLocked(named []int32) error {
	free := make([]bool, len(db.lsets))
	for _, h := range db.freeLSETs {
		if int(h) >= len(db.lsets) || free[h] {
			return fmt.Errorf("lsdb: LSET free list %v lists slot %d twice or past the table's %d", db.freeLSETs, h, len(db.lsets))
		}
		free[h] = true
	}
	for h, slot := range db.lsets {
		switch {
		case slot.refs != named[h]:
			return fmt.Errorf("lsdb: LSET slot %d has %d references, %d registrations name it", h, slot.refs, named[h])
		case free[h] != (named[h] == 0):
			return fmt.Errorf("lsdb: LSET slot %d is named by %d registrations, on the free list: %v", h, named[h], free[h])
		case free[h] && slot.links != nil:
			return fmt.Errorf("lsdb: free LSET slot %d holds LSET %v", h, slot.links)
		}
	}
	return nil
}
