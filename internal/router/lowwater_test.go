package router

import (
	"slices"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/dedup"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/topology"
	"github.com/rtcl/drtp/internal/transport"
)

// FuzzLowWater drives a router's signalling memory with random
// interleavings of two sources' setups, activates and teardowns, sent
// once, duplicated, delayed and reordered, while each source's round
// trips and teardown retransmissions open and close and its low-water
// mark advances. A model states the rule: a source's mark is the highest
// Low it has sent; a setup or activate at or below it, or at or below a
// teardown of its connection recorded above it, is stale; a hop processed
// above the mark is replayed until the mark passes it. Every hop's verdict
// must be the model's, no record may be dropped while its sequence is
// above its source's mark, and none may be kept once the mark passes it.
func FuzzLowWater(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 4, 0, 6, 0, 1, 5, 3, 2})
	f.Add([]byte{0, 0x80, 2, 0x80, 6, 0, 4, 1, 4, 0, 8, 0, 6, 0})
	f.Add([]byte{0, 0, 1, 0, 2, 0x40, 3, 0x40, 4, 0, 5, 1, 6, 0, 7, 1, 4, 2, 4, 3, 6, 0, 7, 0})
	f.Add([]byte{8, 0, 8, 1, 2, 0xc0, 6, 0, 6, 1, 4, 0, 4, 1, 4, 2, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type msg struct {
			src graph.NodeID
			key dedupKey
			low uint64
		}
		// A sender's open sequences (round trips in flight, teardowns
		// with retransmissions scheduled) hold its mark below the oldest.
		type sender struct {
			seq  uint64
			open []uint64
		}
		var (
			mem     = dedup.NewWindow[graph.NodeID, dedupKey, sigResult]()
			senders [2]sender
			sent    []msg
			mark    [2]uint64
			kept    = map[dedupKey]graph.NodeID{}
		)
		deliver := func(m msg) {
			// The model: raise the mark, forget what it passes, decide.
			mark[m.src] = max(mark[m.src], m.low)
			for k, src := range kept {
				if src == m.src && k.seq <= mark[src] {
					delete(kept, k)
				}
			}
			want := fresh
			if m.key.kind != sigTeardown {
				outrun := m.key.seq <= mark[m.src]
				for k := range kept {
					outrun = outrun || k.kind == sigTeardown && k.conn == m.key.conn && k.seq >= m.key.seq
				}
				if outrun {
					want = stale
				}
			}
			if _, ok := kept[m.key]; ok && want == fresh {
				want = replay
			}

			s, _, v := admit(mem, m.src, m.low, m.key)
			if v != want {
				t.Fatalf("%+v: verdict %d, want %d (mark %d)", m, v, want, mark[m.src])
			}
			if v == fresh {
				if m.key.kind != sigTeardown && m.key.seq <= mark[m.src] {
					t.Fatalf("%+v applied at or below the mark %d", m, mark[m.src])
				}
				mem.Put(s, m.key, sigResult{ok: true})
				if m.key.seq > mark[m.src] {
					kept[m.key] = m.src
				}
			}
			if mem.Len() != len(kept) {
				t.Fatalf("after %+v: %d records kept, want %d", m, mem.Len(), len(kept))
			}
			for k := range kept {
				if _, ok := mem.Get(k); !ok {
					t.Fatalf("after %+v: record %+v dropped above its mark %d", m, k, mark[kept[k]])
				}
			}
		}
		// The model's checks walk every record per hop; 256 operations
		// keep an execution short.
		ops = ops[:min(len(ops), 512)]
		for len(ops) >= 2 {
			b0, b1 := ops[0], ops[1]
			ops = ops[2:]
			src := graph.NodeID(b0 & 1)
			snd := &senders[src]
			kind := [...]uint8{sigSetup, sigActivate, sigTeardown}
			switch op := (b0 >> 1) % 5; op {
			case 0, 1, 2:
				// A new setup or activate opens a round trip; a teardown is
				// open only while retransmissions are scheduled (b1&0x40).
				snd.seq++
				if op < 2 || b1&0x40 != 0 {
					snd.open = append(snd.open, snd.seq)
				}
				low := snd.seq - 1
				if len(snd.open) > 0 {
					low = min(low, snd.open[0]-1)
				}
				m := msg{src: src, low: low, key: dedupKey{
					conn: lsdb.ConnID(int(src)*8 + int(b1%4)), seq: snd.seq, hop: int32((b1 >> 2) & 1), kind: kind[op]}}
				sent = append(sent, m)
				if b1&0x80 == 0 {
					deliver(m)
				}
			case 3:
				// A copy of an earlier message: a duplicate, a retransmission
				// or a delayed original.
				if len(sent) > 0 {
					deliver(sent[int(b1)%len(sent)])
				}
			case 4:
				// The source stops retransmitting one open sequence.
				if len(snd.open) > 0 {
					snd.open = slices.Delete(snd.open, int(b1)%len(snd.open), int(b1)%len(snd.open)+1)
				}
			}
		}
	})
}

// steadyHops processes n last-hop setups at a router of a one-edge
// network, each under a new sequence and sent with a low-water mark just
// below it, answering a drained endpoint: the signalling memory's steady
// state, one record kept and one dropped per hop. It returns the
// allocations per hop of the last n/2.
func steadyHops(t *testing.T, n int) float64 {
	g, err := topology.FromEdgeList(2, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	mem := transport.NewMem()
	defer mem.Close()
	ep, err := mem.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	src, err := mem.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range src.Recv() {
		}
	}()
	r, err := New(Config{Node: 0, Graph: g, Capacity: 10, UnitBW: 1,
		HelloInterval: time.Hour, HelloMiss: 1, LSInterval: time.Hour}, ep)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	route := []graph.NodeID{1, 0}
	var seq uint64
	hop := func() {
		seq++
		r.dispatch(proto.Envelope{From: 1, To: 0, Msg: proto.Setup{Conn: 7, Channel: proto.Primary,
			Route: route, Hop: 1, Seq: seq, Low: seq - 1}})
	}
	for i := 0; i < n/2; i++ {
		hop()
	}
	return testing.AllocsPerRun(n/2, hop)
}

// TestSteadyHopAllocs holds a steady-state signalling hop to one
// allocation, as many as it made when the router deduplicated against a
// full 8 192-entry window: keeping one record and dropping one allocates
// nothing once the table and the queue have grown.
func TestSteadyHopAllocs(t *testing.T) {
	got := steadyHops(t, 20_000)
	t.Logf("%.2f allocations per hop", got)
	if got > 1 {
		t.Errorf("a steady-state hop allocates %.2f times, want at most 1", got)
	}
}
