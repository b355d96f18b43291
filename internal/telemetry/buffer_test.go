package telemetry_test

import (
	"reflect"
	"sync"
	"testing"

	"github.com/rtcl/drtp/internal/telemetry"
)

// TestBufferRecordsInOrder asserts the Buffer sink keeps insertion order
// and that Events returns a copy, not the live slice.
func TestBufferRecordsInOrder(t *testing.T) {
	buf := telemetry.NewBuffer()
	for i := 0; i < 5; i++ {
		buf.Record(telemetry.Event{Conn: int64(i), N: 1})
	}
	if buf.Len() != 5 {
		t.Fatalf("len = %d", buf.Len())
	}
	got := buf.Events()
	for i, e := range got {
		if e.Conn != int64(i) {
			t.Fatalf("event %d has conn %d", i, e.Conn)
		}
	}
	got[0].Conn = 99
	if fresh := buf.Events(); fresh[0].Conn != 0 {
		t.Fatal("Events must return a copy")
	}
}

// TestBufferConcurrentRecord hammers one buffer from many goroutines;
// every event must land exactly once (run under -race in CI).
func TestBufferConcurrentRecord(t *testing.T) {
	buf := telemetry.NewBuffer()
	const goroutines, per = 8, 100
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				buf.Record(telemetry.Event{Node: g, Conn: int64(i), N: 1})
			}
		}(g)
	}
	wg.Wait()
	if buf.Len() != goroutines*per {
		t.Fatalf("len = %d, want %d", buf.Len(), goroutines*per)
	}
}

// TestForwardPreservesEvents asserts ForwardBatch replays buffered
// events into a tracer's sinks verbatim — same timestamps, same order —
// which is what makes trace output identical at any experiment worker
// count. Emit, by contrast, re-stamps the clock.
func TestForwardPreservesEvents(t *testing.T) {
	cell := telemetry.NewBuffer()
	cellTracer := telemetry.NewTracer(cell)
	tick := 0.0
	cellTracer.SetClock(func() float64 { tick += 1.5; return tick })
	cellTracer.ConnRequest("D-LSR", 7, 1)
	cellTracer.ConnEstablish("D-LSR", 7, 1, 3)
	cellTracer.ConnTeardown("D-LSR", 7, 1)

	shared := telemetry.NewBuffer()
	sharedTracer := telemetry.NewTracer(shared)
	sharedTracer.SetClock(func() float64 { return 999 }) // must NOT restamp
	sharedTracer.ForwardBatch(cell.Events())
	if !reflect.DeepEqual(shared.Events(), cell.Events()) {
		t.Fatalf("forwarded events differ:\ngot  %+v\nwant %+v", shared.Events(), cell.Events())
	}
	if got := shared.Events()[0].T; got != 1.5 {
		t.Fatalf("forwarded timestamp restamped to %v", got)
	}
}

// TestForwardBatchPerEventSink asserts a sink without RecordBatch (a
// Ring) receives the batch as per-event Records, in order.
func TestForwardBatchPerEventSink(t *testing.T) {
	ring := telemetry.NewRing(8)
	events := []telemetry.Event{{T: 1, Conn: 1, N: 1}, {T: 2, Conn: 2, N: 1}, {T: 3, Conn: 3, N: 1}}
	telemetry.NewTracer(ring).ForwardBatch(append([]telemetry.Event(nil), events...))
	if !reflect.DeepEqual(ring.Events(), events) {
		t.Fatalf("ring holds %+v, want %+v", ring.Events(), events)
	}
}

// TestForwardNormalizesMultiplicity mirrors Emit's N floor.
func TestForwardNormalizesMultiplicity(t *testing.T) {
	buf := telemetry.NewBuffer()
	tr := telemetry.NewTracer(buf)
	tr.ForwardBatch([]telemetry.Event{{Kind: telemetry.EvLSUpdate}})
	if got := buf.Events()[0].N; got != 1 {
		t.Fatalf("N = %d, want 1", got)
	}
}

// TestForwardDisabledTracer asserts ForwardBatch is a no-op on nil
// and sink-less tracers, like every other tracer method.
func TestForwardDisabledTracer(t *testing.T) {
	var nilTracer *telemetry.Tracer
	nilTracer.ForwardBatch([]telemetry.Event{{N: 1}}) // must not panic
	empty := telemetry.NewTracer()
	empty.ForwardBatch([]telemetry.Event{{N: 1}})
}
