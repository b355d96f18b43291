package dedup

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// key has the shape of a router's hop record key: a sequence and which of
// the message's hops.
type key struct {
	seq uint64
	hop int
}

func (k key) Seq() uint64 { return k.seq }

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestWindowStaysBounded is the property the window exists for: however
// many records pass through, it holds only those above their senders'
// marks, every one of them, and its live heap stops growing once the
// records in flight have grown its tables. Three senders take turns
// numbering messages, two hop records each, and each sends a mark that
// keeps its last inFlight messages open.
func TestWindowStaysBounded(t *testing.T) {
	const (
		senders  = 3
		inFlight = 64
		n        = 200_000
	)
	w := NewWindow[int, key, [4]uint64]()
	var heap10k uint64
	for seq := uint64(1); seq <= n; seq++ {
		src := int(seq % senders)
		s := w.Raise(src, max(seq, senders*inFlight)-senders*inFlight)
		for hop := 0; hop < 2; hop++ {
			w.Put(s, key{seq, hop}, [4]uint64{seq})
		}
		if got, limit := w.Len(), 2*senders*inFlight; got > limit {
			t.Fatalf("after %d messages the window holds %d records, want at most %d", seq, got, limit)
		}
		if seq%1000 == 0 {
			for src := 0; src < senders; src++ {
				s := w.Raise(src, 0)
				if got := len(s.Since(0)); got != 2*inFlight {
					t.Fatalf("after %d messages sender %d holds %d records, want %d", seq, src, got, 2*inFlight)
				}
				for _, k := range s.Since(0) {
					if k.seq <= s.Low() || k.seq+senders*inFlight <= seq {
						t.Fatalf("after %d messages sender %d holds %+v; its mark is %d", seq, src, k, s.Low())
					}
					if _, ok := w.Get(k); !ok {
						t.Fatalf("sender %d lists %+v, which the window does not hold", src, k)
					}
				}
			}
		}
		if seq == 10_000 {
			heap10k = liveHeap()
		}
	}
	heapEnd := liveHeap()
	if _, ok := w.Get(key{1, 0}); ok {
		t.Error("the first record put is still held long after its mark passed it")
	}
	t.Logf("live heap %d B after 10 000 sequences, %d B after %d", heap10k, heapEnd, n)
	if float64(heapEnd) > 1.10*float64(heap10k) {
		t.Errorf("live heap grew from %d B after 10 000 sequences to %d B after %d", heap10k, heapEnd, n)
	}
	runtime.KeepAlive(w)
}

// TestWindowNewestValueWins: a key put again shadows its older value,
// which is what turns an agent's in-flight marker into its completed
// result; it keeps its one place in its sender's queue. A key at or
// below its sender's mark is not kept, and a raise drops exactly the
// records it passes.
func TestWindowNewestValueWins(t *testing.T) {
	w := NewWindow[int, key, string]()
	s := w.Raise(0, 0)
	w.Put(s, key{1, 0}, "old")
	w.Put(s, key{2, 0}, "x")
	w.Put(s, key{1, 0}, "new")
	if w.Len() != 2 || len(s.Since(0)) != 2 {
		t.Fatalf("the window holds %d records, its sender lists %d; want 2 and 2", w.Len(), len(s.Since(0)))
	}
	if v, ok := w.Get(key{1, 0}); !ok || v != "new" {
		t.Errorf("Get(1) = %q, %v; want the value put last", v, ok)
	}
	if v, ok := w.Get(key{2, 0}); !ok || v != "x" {
		t.Errorf("Get(2) = %q, %v; want its only value", v, ok)
	}
	if _, ok := w.Get(key{3, 0}); ok {
		t.Error("Get of a key never put succeeded")
	}
	if s = w.Raise(0, 1); s.Low() != 1 {
		t.Fatalf("the mark is %d after a raise to 1", s.Low())
	}
	if _, ok := w.Get(key{1, 0}); ok {
		t.Error("a record at the raised mark is still held")
	}
	if v, ok := w.Get(key{2, 0}); !ok || v != "x" {
		t.Errorf("Get(2) = %q, %v after a raise to 1; want it still held", v, ok)
	}
	w.Put(s, key{1, 1}, "late")
	if _, ok := w.Get(key{1, 1}); ok {
		t.Error("a key at the mark was kept")
	}
	if s = w.Raise(0, 0); s.Low() != 1 {
		t.Errorf("a lower mark moved the mark to %d", s.Low())
	}
	if other := w.Raise(1, 5); other.Low() != 5 || s.Low() != 1 || w.Len() != 1 {
		t.Errorf("another sender's raise to 5: its mark %d, the first's %d, %d records held; want 5, 1, 1", other.Low(), s.Low(), w.Len())
	}
}

// TestWindowAllocs: once its tables have grown, a record kept and one
// dropped per message, the steady state of a sender with a few messages
// in flight, allocates nothing.
func TestWindowAllocs(t *testing.T) {
	w := NewWindow[int, key, [3]uint64]()
	var seq uint64
	step := func() {
		seq++
		s := w.Raise(int(seq%2), max(seq, 8)-8)
		if _, ok := w.Get(key{seq, 0}); !ok {
			w.Put(s, key{seq, 0}, [3]uint64{seq})
		}
	}
	for i := 0; i < 10_000; i++ {
		step()
	}
	if got := testing.AllocsPerRun(10_000, step); got != 0 {
		t.Errorf("a steady-state record allocates %.2f times, want 0", got)
	}
}

// FuzzWindow runs Raise/Put/Get sequences of three senders against a
// model that keeps, per sender, the highest mark raised and the records
// put above it. Each triple of bytes is one operation: which sender and
// which of raise, put or get, then a sequence near the sender's mark and
// a hop, so puts at, below and above the mark, re-puts of held keys and
// raises past several records all occur. No record may be dropped while
// it is above its sender's mark, none kept at or below it, and each
// sender's queue must list exactly its records in sequence order.
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
		type rec struct {
			src int
			val int
		}
		w := NewWindow[int, key, int]()
		var marks [3]uint64
		model := map[key]rec{}
		data = data[:min(len(data), 3*256)]
		for i := 0; i+2 < len(data); i += 3 {
			src := int(data[i]) % 3
			seq := max(marks[src]+uint64(data[i+1]%8), 2) - 2
			k := key{seq, int(data[i+2] % 2)}
			switch data[i] / 3 % 3 {
			case 0:
				low := marks[src] + uint64(data[i+1]%4)
				s := w.Raise(src, low)
				marks[src] = max(marks[src], low)
				if s.Low() != marks[src] {
					t.Fatalf("op %d: sender %d's mark is %d, model %d", i/3, src, s.Low(), marks[src])
				}
				for k, r := range model {
					if r.src == src && k.seq <= marks[src] {
						delete(model, k)
					}
				}
			case 1:
				if held, ok := model[k]; ok && held.src != src {
					continue // one key, one sender
				}
				w.Put(w.Raise(src, 0), k, i)
				if k.seq > marks[src] {
					model[k] = rec{src, i}
				}
			case 2:
				v, ok := w.Get(k)
				if want, held := model[k]; ok != held || v != want.val {
					t.Fatalf("op %d: Get(%+v) = %d, %v; model holds %d, %v", i/3, k, v, ok, want.val, held)
				}
			}
			if w.Len() != len(model) {
				t.Fatalf("op %d: window holds %d records, model %d", i/3, w.Len(), len(model))
			}
			for src := range marks {
				var want []key
				for k, r := range model {
					if r.src == src {
						want = append(want, k)
					}
				}
				got := w.Raise(src, 0).Since(0)
				if !slices.IsSortedFunc(got, func(a, b key) int { return int(a.seq) - int(b.seq) }) {
					t.Fatalf("op %d: sender %d's queue %v is out of sequence order", i/3, src, got)
				}
				slices.SortFunc(want, func(a, b key) int { return int(a.seq-b.seq)*2 + a.hop - b.hop })
				got = slices.Clone(got)
				slices.SortFunc(got, func(a, b key) int { return int(a.seq-b.seq)*2 + a.hop - b.hop })
				if !slices.Equal(got, want) {
					t.Fatalf("op %d: sender %d lists %v, model %v", i/3, src, got, want)
				}
			}
		}
		for k, r := range model {
			if v, ok := w.Get(k); !ok || v != r.val {
				t.Fatalf("at the end: Get(%+v) = %d, %v; model holds %d", k, v, ok, r.val)
			}
		}
	})
}

// TestWindowBytes holds Bytes to the live heap windows add: the record
// table at its peak, the senders' queues and the marks, within 5 %. Each
// of 64 windows holds 64 records of each of 12 senders: a 1 024-slot
// table, past 32 KB, which the allocator rounds to whole pages.
func TestWindowBytes(t *testing.T) {
	const (
		windows = 64
		senders = 12
		records = 64
	)
	before := liveHeap()
	ws := make([]*Window[int, key, [4]uint64], windows)
	for i := range ws {
		ws[i] = NewWindow[int, key, [4]uint64]()
		for seq := uint64(1); seq <= senders*records; seq++ {
			ws[i].Put(ws[i].Raise(int(seq%senders), 0), key{seq, 0}, [4]uint64{seq})
		}
	}
	got := int64(liveHeap() - before)
	var pending, marks int64
	for _, w := range ws {
		p, m := w.Bytes()
		pending, marks = pending+p, marks+m
	}
	want := pending + marks
	if recs := int64(windows*senders*records) * int64(unsafe.Sizeof(key{})+unsafe.Sizeof([4]uint64{})); pending < recs {
		t.Fatalf("Bytes reports %d B pending, below the records' own %d", pending, recs)
	}
	t.Logf("live heap %d B, Bytes %d B pending and %d B of marks", got, pending, marks)
	if diff := got - want; diff < -want/20 || diff > want/20 {
		t.Errorf("the windows hold %d B of live heap, Bytes reports %d", got, want)
	}
	runtime.KeepAlive(ws)
}
