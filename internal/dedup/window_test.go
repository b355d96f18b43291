package dedup

import (
	"runtime"
	"testing"
)

type key struct {
	conn, seq uint64
	hop       int
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestWindowStaysBounded is the property the windows exist for: however
// many distinct keys pass through, the window holds at most its capacity,
// always still holds the most recent half of it, and its live heap stops
// growing once it is full.
func TestWindowStaysBounded(t *testing.T) {
	const capacity = 8192
	w := NewWindow[key, [4]uint64](capacity)
	var heap10x uint64
	for i := uint64(0); i < 100*capacity; i++ {
		w.Put(key{conn: i, seq: i * 3, hop: int(i % 5)}, [4]uint64{i})
		if n := len(w.cur) + len(w.prev); n > capacity {
			t.Fatalf("after %d puts the window holds %d entries, capacity %d", i+1, n, capacity)
		}
		if i%1000 == 999 || i+1 == 100*capacity {
			for j := i + 1 - capacity/2; j <= i; j++ {
				if v, ok := w.Get(key{conn: j, seq: j * 3, hop: int(j % 5)}); !ok || v[0] != j {
					t.Fatalf("after %d puts key %d, one of the most recent %d, is gone", i+1, j, capacity/2)
				}
			}
		}
		if i+1 == 10*capacity {
			heap10x = liveHeap()
		}
	}
	heap100x := liveHeap()
	if _, ok := w.Get(key{}); ok {
		t.Error("the first key put is still held after 100x capacity")
	}
	t.Logf("live heap %d B after 10x capacity, %d B after 100x", heap10x, heap100x)
	if float64(heap100x) > 1.10*float64(heap10x) {
		t.Errorf("live heap grew from %d B at 10x capacity to %d B at 100x", heap10x, heap100x)
	}
	runtime.KeepAlive(w)
}

// TestWindowNewestValueWins: a key put again shadows its older value even
// when that one sits in the previous generation, which is what keeps a
// tombstone's highest sequence and an agent's completed result visible.
func TestWindowNewestValueWins(t *testing.T) {
	w := NewWindow[int, string](4)
	w.Put(1, "old")
	w.Put(2, "x") // generation turns over: 1 and 2 are now the previous one
	if len(w.prev) != 2 || len(w.cur) != 0 {
		t.Fatalf("generations hold %d and %d entries, want 2 and 0", len(w.prev), len(w.cur))
	}
	w.Put(1, "new")
	if v, ok := w.Get(1); !ok || v != "new" {
		t.Errorf("Get(1) = %q, %v; want the value put last", v, ok)
	}
	if v, ok := w.Get(2); !ok || v != "x" {
		t.Errorf("Get(2) = %q, %v; want the previous generation's entry", v, ok)
	}
	if _, ok := w.Get(3); ok {
		t.Error("Get of a key never put succeeded")
	}
	if w := NewWindow[int, int](0); w.half < 1 {
		t.Error("a zero-capacity window would turn over on every put and hold nothing")
	}
}
