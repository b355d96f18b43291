package faultinject

import (
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/transport"
)

// recvIDs drains setup messages from ep until it stays idle for a while,
// returning the connection IDs in arrival order.
func recvIDs(ep transport.Endpoint) []int64 {
	var out []int64
	for {
		select {
		case env := <-ep.Recv():
			if s, ok := env.Msg.(proto.Setup); ok {
				out = append(out, int64(s.Conn))
			}
		case <-time.After(100 * time.Millisecond):
			return out
		}
	}
}

// chaosRun sends n numbered setups 0->1 through an injector with the
// given schedule and reports the arrival sequence and fault stats.
func chaosRun(t *testing.T, sched *Schedule, n int) ([]int64, Stats) {
	t.Helper()
	mem := transport.NewMem()
	defer mem.Close()
	inj := New(sched, mem)
	src, err := inj.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := inj.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	defer dst.Close()
	for i := 0; i < n; i++ {
		if err := src.Send(1, proto.Setup{Conn: lsdb.ConnID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	inj.Flush()
	return recvIDs(dst), inj.Stats()
}

func TestInjectorDeterministic(t *testing.T) {
	sched := func(seed int64) *Schedule {
		return &Schedule{
			Seed:  seed,
			Links: []LinkRule{{From: -1, To: -1, Drop: 0.3, Dup: 0.2, Reorder: 0.2}},
		}
	}
	a, sa := chaosRun(t, sched(7), 200)
	b, sb := chaosRun(t, sched(7), 200)
	if sa != sb {
		t.Fatalf("same seed, different stats: %+v vs %+v", sa, sb)
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different arrival counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs: %d vs %d", i, a[i], b[i])
		}
	}
	if sa.Total() == 0 {
		t.Fatal("schedule injected no faults at all")
	}
	c, sc := chaosRun(t, sched(8), 200)
	if sa == sc && len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical runs")
		}
	}
}

func TestInjectorPassThrough(t *testing.T) {
	got, stats := chaosRun(t, &Schedule{Seed: 1}, 10)
	if len(got) != 10 || stats.Total() != 0 {
		t.Fatalf("empty schedule not transparent: %d msgs, stats %+v", len(got), stats)
	}
	for i, id := range got {
		if id != int64(i) {
			t.Fatalf("order changed: %v", got)
		}
	}
}

func TestInjectorDupDelivers(t *testing.T) {
	got, stats := chaosRun(t, &Schedule{
		Seed:  3,
		Links: []LinkRule{{From: 0, To: 1, Dup: 1}},
	}, 5)
	if stats.Dups != 5 {
		t.Fatalf("Dups = %d, want 5", stats.Dups)
	}
	if len(got) != 10 {
		t.Fatalf("got %d deliveries, want 10: %v", len(got), got)
	}
}

func TestInjectorReorderHoldsAndFlushes(t *testing.T) {
	// Reorder=1 holds every message one slot: msg i is released by
	// send i+1, and the last one only by Flush.
	mem := transport.NewMem()
	defer mem.Close()
	inj := New(&Schedule{
		Seed:  4,
		Links: []LinkRule{{From: 0, To: 1, Reorder: 1}},
	}, mem)
	src, _ := inj.Attach(0)
	dst, _ := inj.Attach(1)
	for i := 0; i < 3; i++ {
		if err := src.Send(1, proto.Setup{Conn: lsdb.ConnID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := recvIDs(dst); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("before flush: %v, want [0 1]", got)
	}
	inj.Flush()
	if got := recvIDs(dst); len(got) != 1 || got[0] != 2 {
		t.Fatalf("after flush: %v, want [2]", got)
	}
	if s := inj.Stats(); s.Reorders != 3 {
		t.Fatalf("Reorders = %d, want 3", s.Reorders)
	}
}

func TestInjectorCrashAndPartitionWindows(t *testing.T) {
	start := time.Unix(0, 0)
	clock := transport.NewManualClock(start)
	mem := transport.NewMem()
	defer mem.Close()
	inj := New(&Schedule{
		Seed:       5,
		Crashes:    []CrashEvent{{Node: 1, At: 10, Restart: 20}},
		Partitions: []Partition{{Group: []int{0}, At: 30, Heal: 40}},
	}, mem, WithClock(clock))
	src, _ := inj.Attach(0)
	dst, _ := inj.Attach(1)

	send := func() {
		t.Helper()
		if err := src.Send(1, proto.Setup{Conn: 1}); err != nil {
			t.Fatal(err)
		}
		// Crash windows silence hellos too.
		if err := src.Send(1, proto.Hello{From: 0}); err != nil {
			t.Fatal(err)
		}
	}
	recvAll := func(ep transport.Endpoint) int {
		n := 0
		for {
			select {
			case <-ep.Recv():
				n++
			case <-time.After(100 * time.Millisecond):
				return n
			}
		}
	}

	send() // t=0: healthy
	if n := recvAll(dst); n != 2 {
		t.Fatalf("healthy window delivered %d, want 2", n)
	}
	clock.Set(start.Add(15 * time.Millisecond)) // node 1 crashed
	send()
	if n := recvAll(dst); n != 0 {
		t.Fatalf("crash window delivered %d, want 0", n)
	}
	clock.Set(start.Add(35 * time.Millisecond)) // 0 and 1 on opposite sides of the partition
	send()
	if n := recvAll(dst); n != 0 {
		t.Fatalf("partition window delivered %d, want 0", n)
	}
	clock.Set(start.Add(45 * time.Millisecond)) // healed
	send()
	if n := recvAll(dst); n != 2 {
		t.Fatalf("healed window delivered %d, want 2", n)
	}
	s := inj.Stats()
	if s.CrashDrops != 2 || s.PartitionDrops != 2 {
		t.Fatalf("stats = %+v, want 2 crash drops and 2 partition drops", s)
	}
}

func TestInjectorHelloExemptUnlessOpted(t *testing.T) {
	run := func(hello bool) (setups, hellos int) {
		mem := transport.NewMem()
		defer mem.Close()
		inj := New(&Schedule{
			Seed:  6,
			Links: []LinkRule{{From: 0, To: 1, Drop: 1, Hello: hello}},
		}, mem)
		src, _ := inj.Attach(0)
		dst, _ := inj.Attach(1)
		_ = src.Send(1, proto.Setup{Conn: 1})
		_ = src.Send(1, proto.Hello{From: 0})
		for {
			select {
			case env := <-dst.Recv():
				if _, ok := env.Msg.(proto.Hello); ok {
					hellos++
				} else {
					setups++
				}
			case <-time.After(100 * time.Millisecond):
				return setups, hellos
			}
		}
	}
	if setups, hellos := run(false); setups != 0 || hellos != 1 {
		t.Fatalf("hello-exempt rule: setups=%d hellos=%d, want 0/1", setups, hellos)
	}
	if setups, hellos := run(true); setups != 0 || hellos != 0 {
		t.Fatalf("hello-opted rule: setups=%d hellos=%d, want 0/0", setups, hellos)
	}
}

func TestInjectorDelay(t *testing.T) {
	mem := transport.NewMem()
	defer mem.Close()
	inj := New(&Schedule{
		Seed:  9,
		Links: []LinkRule{{From: 0, To: 1, Delay: 3}},
	}, mem, WithDelayUnit(10*time.Millisecond))
	src, _ := inj.Attach(0)
	dst, _ := inj.Attach(1)
	//drtplint:ignore determinism the delay runs on the switchboard's wall clock, whose time the test measures
	start := time.Now()
	if err := src.Send(1, proto.Setup{Conn: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-dst.Recv():
		//drtplint:ignore determinism see start above
		if el := time.Since(start); el < 20*time.Millisecond {
			t.Fatalf("delayed message arrived after %v, want >=20ms", el)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delayed message never arrived")
	}
	if s := inj.Stats(); s.Delays != 1 {
		t.Fatalf("Delays = %d, want 1", s.Delays)
	}
}

var _ transport.Attacher = (*transport.Mem)(nil)

func TestInjectorSatisfiesAttacher(t *testing.T) {
	var _ transport.Attacher = New(&Schedule{}, transport.NewMem())
}

func TestInjectorNodeIdentity(t *testing.T) {
	mem := transport.NewMem()
	defer mem.Close()
	inj := New(&Schedule{}, mem)
	ep, err := inj.Attach(graph.NodeID(3))
	if err != nil {
		t.Fatal(err)
	}
	if ep.Node() != 3 {
		t.Fatalf("Node() = %d, want 3", ep.Node())
	}
}
