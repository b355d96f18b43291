// Package dedup holds the low-water window that the at-least-once
// signalling layers dedup against: the routers' processed signalling hops,
// the agents' executed commands. Every message a sender may retransmit
// carries its low-water mark, the highest sequence at or below which it
// retransmits nothing; a record is kept until its sender's mark passes it,
// never evicted for lack of room.
package dedup

import "unsafe"

// Key is a record's key; Seq is its sender's sequence number.
type Key interface {
	comparable
	Seq() uint64
}

// Window keeps the records above each sender's mark. It is not safe for
// concurrent use; its owner's mutex guards it.
type Window[S comparable, K Key, V any] struct {
	vals    map[K]V
	senders map[S]*Sender[K]
	// peak is the most records vals has held, whose table a Go map keeps.
	peak int
}

// Sender is one sender's low-water mark and its records above it.
type Sender[K Key] struct {
	low     uint64
	pending []K // the sender's keys in vals, by sequence
}

// NewWindow returns an empty window.
func NewWindow[S comparable, K Key, V any]() *Window[S, K, V] {
	return &Window[S, K, V]{vals: make(map[K]V), senders: make(map[S]*Sender[K])}
}

// Raise raises src's mark to low, if higher, dropping the records it
// passes, and returns src's state.
func (w *Window[S, K, V]) Raise(src S, low uint64) *Sender[K] {
	s := w.senders[src]
	if s == nil {
		s = &Sender[K]{}
		w.senders[src] = s
	}
	if low > s.low {
		s.low = low
		n := 0
		for ; n < len(s.pending) && s.pending[n].Seq() <= low; n++ {
			delete(w.vals, s.pending[n])
		}
		s.pending = s.pending[:copy(s.pending, s.pending[n:])]
	}
	return s
}

// Get returns the value recorded under k, if the window holds it.
func (w *Window[S, K, V]) Get(k K) (v V, ok bool) {
	v, ok = w.vals[k]
	return
}

// Put records v under k, a key of the sender s only: in place if held,
// else queued until s's mark passes it; a key at or below the mark is
// never asked for, and not kept.
func (w *Window[S, K, V]) Put(s *Sender[K], k K, v V) {
	if k.Seq() <= s.low {
		return
	}
	n := len(w.vals)
	if w.vals[k] = v; len(w.vals) == n {
		return
	}
	w.peak = max(w.peak, len(w.vals))
	s.pending = append(s.pending, k)
	for i := len(s.pending) - 1; i > 0 && s.pending[i-1].Seq() > k.Seq(); i-- {
		s.pending[i-1], s.pending[i] = s.pending[i], s.pending[i-1]
	}
}

// Len returns the number of records the window holds.
func (w *Window[S, K, V]) Len() int { return len(w.vals) }

// Low returns the sender's low-water mark.
func (s *Sender[K]) Low() uint64 { return s.low }

// Since returns s's keys with sequence at least seq, in order; the slice
// is valid until the next Put or Raise.
func (s *Sender[K]) Since(seq uint64) []K {
	i := len(s.pending)
	for i > 0 && s.pending[i-1].Seq() >= seq {
		i--
	}
	return s.pending[i:]
}

// Bytes returns the memory of the records and queues, and of the marks; a
// string or slice in a record counts at its header only.
func (w *Window[S, K, V]) Bytes() (pending, marks int64) {
	k, v, src := *new(K), *new(V), *new(S)
	pending = MapBytes(w.peak, unsafe.Sizeof(k)+unsafe.Sizeof(v))
	for _, s := range w.senders {
		pending += int64(cap(s.pending)) * int64(unsafe.Sizeof(k))
	}
	marks = MapBytes(len(w.senders), unsafe.Sizeof(src)+unsafe.Sizeof(&Sender[K]{})) +
		int64(len(w.senders))*int64(unsafe.Sizeof(Sender[K]{}))
	return pending, marks
}

// MapBytes estimates the table of a Go map that has held peak entries of
// slot bytes: power-of-two slots at most 7/8 full, a control byte each, in
// whole 8 KB pages past 32 KB (a smaller table's size class adds ≤ 1/8).
func MapBytes(peak int, slot uintptr) int64 {
	if peak == 0 {
		return 0
	}
	slots := 8
	for slots*7/8 < peak {
		slots *= 2
	}
	b := int64(slots) * int64(slot+1)
	if b > 32<<10 {
		b = (b + 8<<10 - 1) &^ (8<<10 - 1)
	}
	return b
}
