// Package dedup holds the bounded "seen recently" window that the
// at-least-once signalling layers dedup against: the routers' processed
// signalling messages and teardown tombstones, the agents' executed
// commands.
package dedup

// Window remembers the most recent entries put into it: at least the
// last capacity/2 distinct keys, never more than capacity. It keeps two
// generations, each a map that only ever grows: when the current one
// reaches half the capacity the previous one is dropped whole and a fresh
// map started, so memory is strictly bounded (a single map churned by
// insert-newest/delete-oldest is not: its live heap keeps growing long
// after its length has stopped) and no eviction order is kept.
//
// A Window is not safe for concurrent use; its owner's mutex guards it.
type Window[K comparable, V any] struct {
	cur, prev map[K]V
	half      int
}

// NewWindow returns a window that retains between capacity/2 and
// capacity entries.
func NewWindow[K comparable, V any](capacity int) *Window[K, V] {
	return &Window[K, V]{cur: make(map[K]V), half: max(capacity/2, 1)}
}

// Get returns the value last put under k, if the window still holds it.
func (w *Window[K, V]) Get(k K) (V, bool) {
	if v, ok := w.cur[k]; ok {
		return v, true
	}
	v, ok := w.prev[k]
	return v, ok
}

// Put records v under k as the newest entry, replacing any earlier value.
func (w *Window[K, V]) Put(k K, v V) {
	w.cur[k] = v
	if len(w.cur) >= w.half {
		w.prev, w.cur = w.cur, make(map[K]V)
	}
}
