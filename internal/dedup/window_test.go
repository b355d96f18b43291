package dedup

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

type key struct {
	conn, seq uint64
	hop       int
}

func hashKey(seed uint64, k key) uint64 {
	return Mix(Mix(Mix(seed, k.conn), k.seq), uint64(k.hop))
}

func hashInt(seed uint64, k int) uint64 { return Mix(seed, uint64(k)) }

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// checkIndex verifies the index against the ring without disturbing the
// probe a Get left behind: every held key is reachable from its home slot
// through a run of occupied slots, and the index is at most half full and
// holds nothing else.
func checkIndex[K comparable, V any](t *testing.T, w *Window[K, V]) {
	t.Helper()
	used := 0
	for _, s := range w.index {
		if s.pos != 0 {
			used++
		}
	}
	if used != len(w.ring) || 2*used > len(w.index) {
		t.Fatalf("index holds %d slots of %d for %d ring entries", used, len(w.index), len(w.ring))
	}
	for pos, e := range w.ring {
		h := uint32(w.hash(w.seed, e.key))
		at, ok := w.find(e.key, h)
		if !ok || w.index[at].pos != uint32(pos+1) {
			t.Fatalf("ring entry %d (%v) is not reachable from its home slot", pos, e.key)
		}
	}
}

// TestWindowStaysBounded is the property the windows exist for: however
// many distinct keys pass through, the window holds at most its capacity,
// always still holds every one of the last capacity keys, and its live
// heap stops growing once it is full.
func TestWindowStaysBounded(t *testing.T) {
	const capacity = 8192
	w := NewWindow[key, [4]uint64](capacity, hashKey)
	var heap10x uint64
	keyOf := func(i uint64) key { return key{conn: i, seq: i * 3, hop: int(i % 5)} }
	for i := uint64(0); i < 100*capacity; i++ {
		w.Put(keyOf(i), [4]uint64{i})
		if n := w.Len(); n > capacity {
			t.Fatalf("after %d puts the window holds %d entries, capacity %d", i+1, n, capacity)
		}
		if i%1000 == 999 || i+1 == 100*capacity {
			for j := max(i+1, capacity) - capacity; j <= i; j++ {
				if v, ok := w.Get(keyOf(j)); !ok || v[0] != j {
					t.Fatalf("after %d puts key %d, one of the last %d, is gone", i+1, j, capacity)
				}
			}
			if i >= capacity {
				if _, ok := w.Get(keyOf(i - capacity)); ok {
					t.Fatalf("after %d puts key %d, older than the last %d, is still held", i+1, i-capacity, capacity)
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

// TestWindowNewestValueWins: a key put again shadows its older value,
// which is what keeps a tombstone's highest sequence and an agent's
// completed result visible; it keeps its place in the eviction order.
func TestWindowNewestValueWins(t *testing.T) {
	w := NewWindow[int, string](2, hashInt)
	w.Put(1, "old")
	w.Put(2, "x")
	w.Put(1, "new")
	if w.Len() != 2 {
		t.Fatalf("the window holds %d keys, want 2", w.Len())
	}
	if v, ok := w.Get(1); !ok || v != "new" {
		t.Errorf("Get(1) = %q, %v; want the value put last", v, ok)
	}
	if v, ok := w.Get(2); !ok || v != "x" {
		t.Errorf("Get(2) = %q, %v; want its only value", v, ok)
	}
	if _, ok := w.Get(3); ok {
		t.Error("Get of a key never put succeeded")
	}
	w.Put(3, "y") // evicts 1, the first key put, though its value is newer
	if _, ok := w.Get(1); ok {
		t.Error("a re-put key outlived the eviction of its first insert")
	}
	if v, ok := w.Get(2); !ok || v != "x" {
		t.Errorf("Get(2) = %q, %v after one eviction; want it still held", v, ok)
	}
	w0 := NewWindow[int, int](0, hashInt)
	w0.Put(7, 1)
	if v, ok := w0.Get(7); !ok || v != 1 {
		t.Error("a zero-capacity window does not hold the key put last")
	}
}

// TestWindowAllocs: once full, neither a miss followed by an insert nor a
// hit followed by an in-place update allocates.
func TestWindowAllocs(t *testing.T) {
	const capacity = 8192
	w := NewWindow[benchKey, benchVal](capacity, hashBenchKey)
	for i := 0; i < capacity; i++ {
		w.Put(benchKeyOf(uint64(i)), benchVal{ok: true})
	}
	next := uint64(capacity)
	miss := testing.AllocsPerRun(1000, func() {
		k := benchKeyOf(next)
		next++
		if _, ok := w.Get(k); !ok {
			w.Put(k, benchVal{ok: true})
		}
	})
	hit := testing.AllocsPerRun(1000, func() {
		k := benchKeyOf(next - 1)
		if v, ok := w.Get(k); ok {
			w.Put(k, v)
		}
	})
	if miss != 0 || hit != 0 {
		t.Errorf("a full window allocates %.1f per miss+insert and %.1f per hit+update, want 0", miss, hit)
	}
}

// FuzzWindow runs Get/Put sequences against a model that keeps keys in
// first-insert order and drops the oldest past the capacity. The first
// byte picks the capacity (1, 2, 3 or 64) and the hash: the window's own
// mix, one home for every key (one long chain through the wrap of the
// table), homes at the top of the table (chains that wrap), or the key
// itself. Each later pair of bytes is one operation on one of a few more
// keys than the capacity, so re-puts of held keys, evictions and
// backward shifts all occur.
func FuzzWindow(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 2, 3, 4})
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		b := make([]byte, 1024)
		r.Read(b)
		b[0] = byte(i)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := [...]int{1, 2, 3, 64}[data[0]&3]
		hash := [...]func(uint64, int) uint64{
			hashInt,
			func(uint64, int) uint64 { return 5 },
			func(_ uint64, k int) uint64 { return ^uint64(k % 3) },
			func(_ uint64, k int) uint64 { return uint64(k) },
		}[data[0]>>2&3]
		keys := capacity + 1 + capacity/2
		w := NewWindow[int, int](capacity, hash)
		var order []int // held keys, oldest first
		vals := map[int]int{}
		for i := 1; i+1 < len(data); i += 2 {
			k := int(data[i+1]) % keys
			if data[i]&1 == 0 {
				v, ok := w.Get(k)
				if want, held := vals[k]; ok != held || v != want {
					t.Fatalf("op %d: Get(%d) = %d, %v; model holds %d, %v", i/2, k, v, ok, want, held)
				}
				continue
			}
			w.Put(k, i)
			if _, held := vals[k]; !held {
				order = append(order, k)
				if len(order) > capacity {
					delete(vals, order[0])
					order = order[1:]
				}
			}
			vals[k] = i
			if w.Len() != len(order) {
				t.Fatalf("op %d: window holds %d keys, model %d", i/2, w.Len(), len(order))
			}
			checkIndex(t, w)
		}
		for k := 0; k < keys; k++ {
			v, ok := w.Get(k)
			if want, held := vals[k]; ok != held || v != want {
				t.Fatalf("at the end: Get(%d) = %d, %v; model holds %d, %v", k, v, ok, want, held)
			}
		}
	})
}

// benchKey and benchVal have the shape of the routers' signalling window
// entries: which walk, sequence and hop, and the recorded outcome.
type benchKey struct {
	kind    uint8
	conn    int64
	channel int
	seq     uint64
	hop     int
}

type benchVal struct {
	ok        bool
	failedHop int
	reason    string
}

func hashBenchKey(seed uint64, k benchKey) uint64 {
	h := Mix(seed, uint64(k.kind)|uint64(k.channel)<<8)
	return Mix(Mix(Mix(h, uint64(k.conn)), k.seq), uint64(k.hop))
}

func benchKeyOf(i uint64) benchKey {
	return benchKey{kind: 1, conn: int64(i / 4), channel: int(i % 2), seq: i, hop: int(i % 5)}
}

// BenchmarkWindow measures the signalling window at its router capacity,
// full: a miss followed by the insert of a new key (the common case of a
// hop processed once), and a hit (a retransmission).
func BenchmarkWindow(b *testing.B) {
	const capacity = 8192
	fill := func() *Window[benchKey, benchVal] {
		w := NewWindow[benchKey, benchVal](capacity, hashBenchKey)
		for i := 0; i < capacity; i++ {
			w.Put(benchKeyOf(uint64(i)), benchVal{ok: true})
		}
		return w
	}
	b.Run("miss+insert", func(b *testing.B) {
		w := fill()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := benchKeyOf(uint64(capacity + i))
			if _, ok := w.Get(k); !ok {
				w.Put(k, benchVal{ok: true})
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		w := fill()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := w.Get(benchKeyOf(uint64(capacity/2 + i%(capacity/2)))); !ok {
				b.Fatal("a held key missed")
			}
		}
	})
}

// TestWindowBytes holds Bytes to the live heap a full window adds: the
// ring at capacity and an index at most twice as many slots, within 5 %.
func TestWindowBytes(t *testing.T) {
	const capacity = 8192
	before := liveHeap()
	w := NewWindow[key, [4]uint64](capacity, hashKey)
	for i := uint64(0); i < 2*capacity; i++ {
		w.Put(key{conn: i, seq: i}, [4]uint64{i})
	}
	got := int64(liveHeap() - before)
	want := w.Bytes()
	if ring := int64(capacity) * int64(unsafe.Sizeof(entry[key, [4]uint64]{})); want < ring {
		t.Fatalf("Bytes = %d, below the ring's %d", want, ring)
	}
	if diff := got - want; diff < -want/20 || diff > want/20 {
		t.Errorf("a full window holds %d B of live heap, Bytes reports %d", got, want)
	}
	runtime.KeepAlive(w)
}
