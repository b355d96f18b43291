package lsdb

import (
	"math"

	"github.com/rtcl/drtp/internal/graph"
)

// This file holds the LSET table. A backup-register packet carries the
// primary's LSET, and every link of the backup keeps it beside its APLV
// (§5) so a release or promotion can fold it out again. The links of one
// backup path store the same LSET, so the database keeps each LSET once,
// in one table slot, and a registry entry is the slot's 4-byte handle.
// A slot belongs to one registration call, so to one connection, and
// holds its ID too: the links of the path read it from there, and an
// entry that repeated the ID beside the handle would be 16 bytes, not 4.
//
// A slot's refs counts the registrations naming it, plus the references
// held while a path operation is in progress: the one newLSETLocked hands
// its caller, dropped when the register call returns (a registration that
// failed on every link thus frees the slot), and the one each promotion
// holds until PromoteBackupPath can no longer roll back. A slot whose
// refs reach zero gives up its slice and joins the free list, which the
// next registration pops, so a register + release pair allocates only the
// LSET clone. Check holds refs to the registrations.

// noLSET is the handle of no slot.
const noLSET = math.MaxUint32

// lsetSlot is one entry of the LSET table: the LSET a registration call
// carried and the connection it registered.
type lsetSlot struct {
	links []graph.LinkID // the database's own copy; nil while the slot is free
	refs  int32
	id    ConnID
}

// newLSETLocked stores connection id's lset, a copy the database may keep,
// in a free slot of the LSET table, with one reference, the caller's, and
// returns its handle. The caller must hold db.mu and drop the reference
// (unrefLSETLocked) before it releases the lock.
func (db *DB) newLSETLocked(id ConnID, lset []graph.LinkID) uint32 {
	slot := lsetSlot{links: lset, refs: 1, id: id}
	if n := len(db.freeLSETs); n > 0 {
		h := db.freeLSETs[n-1]
		db.freeLSETs = db.freeLSETs[:n-1]
		db.lsets[h] = slot
		return h
	}
	db.lsets = append(db.lsets, slot)
	return uint32(len(db.lsets) - 1)
}

// unrefLSETLocked drops one reference to slot h and frees the slot when
// it was the last. The caller must hold db.mu.
func (db *DB) unrefLSETLocked(h uint32) {
	s := &db.lsets[h]
	if s.refs--; s.refs > 0 {
		return
	}
	s.links = nil
	db.freeLSETs = append(db.freeLSETs, h)
	if db.sortedFrom == h {
		db.sortedFrom = noLSET
	}
}
