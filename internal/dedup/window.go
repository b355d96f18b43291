// Package dedup holds the bounded "seen recently" window that the
// at-least-once signalling layers dedup against: the routers' processed
// signalling messages and teardown tombstones, the agents' executed
// commands.
//
// A window holds exactly its last capacity distinct keys, in a ring kept
// in first-insert order and a linear-probing index over it. Memory grows
// with the keys held up to the capacity and stays there: once full, a new
// key overwrites the oldest in place and nothing is allocated again.
package dedup

import (
	"hash/maphash"
	"math/bits"
)

// Window remembers the last capacity distinct keys put into it. Entries
// live in a ring in the order their keys were first put; once the ring
// is full each new key overwrites the oldest one. Putting a held key again
// updates its value in place and does not make it any younger, so which
// keys are held never depends on the hash.
//
// The index is a power-of-two table of slots probed linearly from a key's
// hash, at most half full, with deletes by backward shift. A slot keeps 32
// bits of its key's hash beside the ring position, so most mismatches are
// rejected without touching the ring. A Put right after a Get of the same
// key reuses the probe the Get made.
//
// A Window is not safe for concurrent use; its owner's mutex guards it.
type Window[K comparable, V any] struct {
	ring []entry[K, V]
	// oldest is the ring position the next new key overwrites once the
	// ring is full.
	oldest   int
	capacity int
	index    []slot
	hash     func(seed uint64, k K) uint64
	seed     uint64
	// last is the probe of the latest Get; any Put clears it.
	last probe[K]
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// slot is one index cell: pos is a ring position plus one (0: empty).
type slot struct {
	hash, pos uint32
}

// probe records where a Get ended: at a held key's slot, or at the empty
// slot a miss stopped at, where a Put of that key belongs.
type probe[K comparable] struct {
	key   K
	hash  uint32
	at    uint32
	held  bool
	valid bool
}

// NewWindow returns a window that retains the last capacity distinct
// keys (at least one, fewer than 1<<31). hash mixes a key's fields into a
// seeded hash, e.g. with Mix, of which the window uses the low 32 bits;
// the window draws its own random seed, so keys an adversary picks cannot
// line up into long probe chains.
func NewWindow[K comparable, V any](capacity int, hash func(seed uint64, k K) uint64) *Window[K, V] {
	return &Window[K, V]{
		capacity: max(capacity, 1),
		hash:     hash,
		seed:     maphash.String(maphash.MakeSeed(), ""),
	}
}

// Mix folds the field x into the running hash h. Start a chain with the
// seed the window passes its hash function.
func Mix(h, x uint64) uint64 {
	hi, lo := bits.Mul64(h^x, 0xa0761d6478bd642f)
	return hi ^ lo
}

// Len returns the number of keys the window holds.
func (w *Window[K, V]) Len() int { return len(w.ring) }

// Get returns the value last put under k, if the window still holds it.
func (w *Window[K, V]) Get(k K) (V, bool) {
	var zero V
	if len(w.index) == 0 {
		return zero, false
	}
	h := uint32(w.hash(w.seed, k))
	at, held := w.find(k, h)
	w.last = probe[K]{key: k, hash: h, at: at, held: held, valid: true}
	if !held {
		return zero, false
	}
	return w.ring[w.index[at].pos-1].val, true
}

// Put records v under k: in place if the window holds k, otherwise as the
// newest key, evicting the oldest once the window is full.
func (w *Window[K, V]) Put(k K, v V) {
	p := w.last
	w.last.valid = false
	if len(w.index) == 0 {
		w.grow()
	}
	if !p.valid || p.key != k {
		p.hash = uint32(w.hash(w.seed, k))
		p.at, p.held = w.find(k, p.hash)
	}
	if p.held {
		w.ring[w.index[p.at].pos-1].val = v
		return
	}
	if len(w.ring) < w.capacity {
		if 2*(len(w.ring)+1) > len(w.index) {
			w.grow()
			p.at, _ = w.find(k, p.hash)
		}
		w.ring = append(w.ring, entry[K, V]{k, v})
		if cap(w.ring) > w.capacity {
			// append's growth overshot: the ring never holds more.
			w.ring = append(make([]entry[K, V], 0, w.capacity), w.ring...)
		}
		w.index[p.at] = slot{p.hash, uint32(len(w.ring))}
		return
	}
	// Full: the oldest key gives up its ring position and its slot. The
	// backward shift that closes the slot's gap may open an earlier empty
	// slot on k's probe path, which is then where k belongs.
	pos := w.oldest
	w.oldest = (pos + 1) % w.capacity
	if hole := w.remove(pos); w.dist(p.hash, hole) < w.dist(p.hash, p.at) {
		p.at = hole
	}
	w.ring[pos] = entry[K, V]{k, v}
	w.index[p.at] = slot{p.hash, uint32(pos + 1)}
}

// find probes for k from its home slot and returns the slot holding it,
// or the empty slot that ends the probe.
func (w *Window[K, V]) find(k K, h uint32) (uint32, bool) {
	mask := uint32(len(w.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := w.index[i]
		if s.pos == 0 {
			return i, false
		}
		if s.hash == h && w.ring[s.pos-1].key == k {
			return i, true
		}
	}
}

// remove deletes the slot of the key at ring position pos and shifts the
// rest of its cluster back over the gap, so every key stays reachable
// from its home slot. It returns the slot left empty.
func (w *Window[K, V]) remove(pos int) uint32 {
	mask := uint32(len(w.index) - 1)
	i := uint32(w.hash(w.seed, w.ring[pos].key)) & mask
	for w.index[i].pos != uint32(pos+1) {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; w.index[j].pos != 0; j = (j + 1) & mask {
		// The slot at j may fill the gap at i unless its home lies
		// cyclically in (i, j].
		if s := w.index[j]; w.dist(s.hash, j) >= (j-i)&mask {
			w.index[i] = s
			i = j
		}
	}
	w.index[i] = slot{}
	return i
}

// dist is how far slot i lies past the home slot of hash h.
func (w *Window[K, V]) dist(h, i uint32) uint32 {
	mask := uint32(len(w.index) - 1)
	return (i - h) & mask
}

// grow doubles the index (to 8 slots at first) and reinserts every slot
// by its stored hash bits; the ring is not touched. The ring itself grows
// by append.
func (w *Window[K, V]) grow() {
	old := w.index
	w.index = make([]slot, max(2*len(old), 8))
	mask := uint32(len(w.index) - 1)
	for _, s := range old {
		if s.pos == 0 {
			continue
		}
		i := s.hash & mask
		for w.index[i].pos != 0 {
			i = (i + 1) & mask
		}
		w.index[i] = s
	}
}
