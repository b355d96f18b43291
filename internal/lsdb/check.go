package lsdb

import (
	"fmt"
	"slices"
)

// Check re-derives from first principles everything the database keeps up
// to date beside its registries, and returns an error naming the first
// drift it finds, or nil:
//
//   - every link's backup registry names LSET table slots inside the
//     table, and lists their connections in strictly increasing ID order;
//   - every LSET table slot's reference count equals the registrations
//     naming it, a slot no registration names is on the free list, once,
//     and a free slot holds no LSET;
//   - every APLV column lists its links ascending, each with a nonzero
//     count and inside the network, and holds exactly the counters the
//     LSETs the registries store fold to: APLV_l[j] is the number of l's
//     registrations whose LSET holds j, with multiplicity;
//   - every link's ‖APLV‖₁, max_j APLV[j] and number of counters at the
//     maximum, unless it is marked not known, equal that fold's;
//   - every link's primaries list — what failure evaluation reads in place
//     of a scan over the connections — holds each ID once and accounts for
//     the link's primary bandwidth;
//   - the running prime and spare totals equal the per-link sums.
//
// It is one pass over the links, each link's row folded from its registry
// and matched against the columns it names at a per-column cursor, so it
// costs O(links + stored entries) in time and scratch and can run after
// every event. Spare is not held to max_j APLV[j]·unit: it is resized by
// backup operations only, so a primary release can leave it below that
// until the link's next backup operation.
func (db *DB) Check() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := db.n
	cbits, maxCount := db.cbits, db.maxCount
	folded := make([]int32, n) // one link's APLV row, folded from its registry; zeroed as it is matched
	cursor := make([]int, n)   // cursor[j]: entries of column j matched so far
	var ids []ConnID
	named := make([]int32, len(db.lsets)) // named[h]: registrations naming LSET table slot h
	prime, spare := 0, 0
	for l := range db.links {
		s := &db.links[l]
		prime += s.prime
		spare += s.spare
		for k, e := range s.col {
			switch pl, c := int(e>>cbits), e&maxCount; {
			case k > 0 && int(s.col[k-1]>>cbits) >= pl:
				return fmt.Errorf("lsdb: column %d holds link %d after link %d", l, pl, s.col[k-1]>>cbits)
			case pl >= n:
				return fmt.Errorf("lsdb: column %d holds link %d, out of range [0,%d)", l, pl, n)
			case c == 0:
				return fmt.Errorf("lsdb: column %d holds a zero counter for link %d", l, pl)
			}
		}
		for _, h := range s.backups {
			if int(h) >= len(db.lsets) {
				return fmt.Errorf("lsdb: link %d registers a backup under LSET slot %d, past the table's %d", l, h, len(db.lsets))
			}
			named[h]++
		}
		for k := 1; k < len(s.backups); k++ {
			if prev, id := db.lsets[s.backups[k-1]].id, db.lsets[s.backups[k]].id; prev >= id {
				return fmt.Errorf("lsdb: link %d registry lists connection %d before %d", l, prev, id)
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
		for _, h := range s.backups {
			lset := db.lsets[h].links
			for _, pl := range lset {
				if pl < 0 || int(pl) >= n {
					return fmt.Errorf("lsdb: link %d stores LSET entry %d for connection %d, out of range [0,%d)", l, pl, db.lsets[h].id, n)
				}
				folded[pl]++
			}
			norm += len(lset)
		}
		var maxElem, atMax int32
		for _, h := range s.backups {
			for _, j := range db.lsets[h].links {
				v := folded[j]
				if v == 0 { // matched at an earlier entry
					continue
				}
				folded[j] = 0
				switch {
				case v > maxElem:
					maxElem, atMax = v, 1
				case v == maxElem:
					atMax++
				}
				col, k := db.links[j].col, cursor[j]
				switch {
				case k < len(col) && int(col[k]>>cbits) == l:
					if c := col[k] & maxCount; c != uint32(v) {
						return fmt.Errorf("lsdb: column %d holds APLV_%d[%d] = %d, its registry's LSETs give %d", j, l, j, c, v)
					}
					cursor[j]++
				case k < len(col) && int(col[k]>>cbits) < l:
					return fmt.Errorf("lsdb: column %d holds link %d, whose registry's LSETs give APLV_%d[%d] = 0", j, col[k]>>cbits, col[k]>>cbits, j)
				default:
					return fmt.Errorf("lsdb: column %d lacks link %d, whose registry's LSETs give APLV_%d[%d] = %d", j, l, l, j, v)
				}
			}
		}
		if s.atMax == -1 && maxElem > 0 {
			atMax = -1 // not known, and not kept
		}
		if s.norm != norm || s.maxElem != maxElem || s.atMax != atMax {
			return fmt.Errorf("lsdb: link %d has norm %d and max %d (%d counters at it), its registry's LSETs give %d and %d (%d)",
				l, s.norm, s.maxElem, s.atMax, norm, maxElem, atMax)
		}
	}
	// Whatever a column holds past its cursor no registry counts.
	for j := range db.links {
		if col := db.links[j].col; cursor[j] < len(col) {
			l := col[cursor[j]] >> cbits
			return fmt.Errorf("lsdb: column %d holds link %d, whose registry's LSETs give APLV_%d[%d] = 0", j, l, l, j)
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
