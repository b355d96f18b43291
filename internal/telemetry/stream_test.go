package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// gatedWriter blocks every Write until the gate is released, signalling
// entry so tests can stall the sink's writer goroutine deterministically.
type gatedWriter struct {
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
	buf     bytes.Buffer
	mu      sync.Mutex
}

func newGatedWriter() *gatedWriter {
	return &gatedWriter{entered: make(chan struct{}), gate: make(chan struct{})}
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buf.Write(p)
}

func streamEvent(i int) Event {
	return Event{T: float64(i), Kind: EvConnEstablish, Conn: int64(i), Node: 0, Scheme: "D-LSR", Hops: 3}
}

// TestStreamSinkNeverBlocks stalls the writer goroutine behind a gated
// Write and floods the queue: every Record must return promptly, the
// overflow must be counted exactly, and nothing may be lost silently —
// written + dropped == recorded once the gate opens and the sink closes,
// and the file ends in one trace-dropped trailer carrying the count.
func TestStreamSinkNeverBlocks(t *testing.T) {
	const queue = streamQueue
	gw := newGatedWriter()
	reg := NewRegistry()
	sink := NewStreamSink(gw, reg)

	// One event, then idle: the writer goroutine flushes and blocks in
	// the gated Write with the queue empty.
	sink.Record(streamEvent(0))
	select {
	case <-gw.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("writer goroutine never reached the underlying writer")
	}

	// With the writer stalled, exactly `queue` events fit; the rest must
	// drop without blocking. The recording loop is timed via the test
	// timeout: a blocking Record would hang here forever.
	const flood = queue + 100
	for i := 1; i <= flood; i++ {
		sink.Record(streamEvent(i))
	}
	if got := sink.Dropped(); got != 100 {
		t.Errorf("Dropped() = %d, want exactly 100", got)
	}

	close(gw.gate)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := sink.Written(), int64(1+queue); got != want {
		t.Errorf("Written() = %d, want %d", got, want)
	}
	if got, want := sink.Written()+sink.Dropped(), int64(1+flood); got != want {
		t.Errorf("written %d + dropped %d = %d, want %d (every Record accounted for)",
			sink.Written(), sink.Dropped(), got, want)
	}

	// The loss is visible in the file: the last line is the trailer, and
	// it is not counted as written.
	gw.mu.Lock()
	events, err := ReadJSONL(&gw.buf)
	gw.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(events), 1+queue+1; got != want {
		t.Fatalf("file holds %d events, want %d written + 1 trailer", got, want)
	}
	if last := events[len(events)-1]; last.Kind != EvTraceDropped || last.N != 100 {
		t.Errorf("last event = %+v, want a trace-dropped trailer with N=100", last)
	}

	// The loss is visible on the registry, not just the sink handle.
	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"drtp_telemetry_stream_dropped_total 100",
		fmt.Sprintf("drtp_telemetry_stream_written_total %d", 1+queue),
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, expo.String())
		}
	}
}

// TestStreamSinkMatchesJSONL asserts the zero-overflow guarantee: fed
// the same event sequence from one producer, the streaming sink's bytes
// equal the plain buffered JSONL sink's bytes exactly.
func TestStreamSinkMatchesJSONL(t *testing.T) {
	const n = 5000
	var plain bytes.Buffer
	jl := NewJSONL(&plain)
	for i := 0; i < n; i++ {
		jl.Record(streamEvent(i))
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	var streamed bytes.Buffer
	sink := NewStreamSink(&streamed, nil)
	for i := 0; i < n; i++ {
		sink.Record(streamEvent(i))
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Dropped() != 0 {
		t.Fatalf("dropped %d events with a queue sized for the whole run", sink.Dropped())
	}
	if !bytes.Equal(plain.Bytes(), streamed.Bytes()) {
		t.Errorf("streamed bytes differ from buffered JSONL bytes (%d vs %d bytes)",
			streamed.Len(), plain.Len())
	}
}

// TestStreamSinkConcurrentProducers hammers Record from many goroutines
// (run under -race): with a queue sized for the load nothing drops, every
// event round-trips through ReadJSONL, and each producer's events keep
// their relative order in the output.
func TestStreamSinkConcurrentProducers(t *testing.T) {
	const (
		producers = 8
		perProd   = streamQueue / producers
	)
	var out bytes.Buffer
	sink := NewStreamSink(&out, nil)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				e := streamEvent(i)
				e.Node = p
				sink.Record(e)
			}
		}(p)
	}
	wg.Wait()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Dropped() != 0 {
		t.Fatalf("dropped %d events with a queue sized for the whole load", sink.Dropped())
	}

	events, err := ReadJSONL(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != producers*perProd {
		t.Fatalf("read %d events, want %d", len(events), producers*perProd)
	}
	next := make([]int64, producers)
	for _, e := range events {
		if e.Conn != next[e.Node] {
			t.Fatalf("producer %d events reordered: got conn %d, want %d", e.Node, e.Conn, next[e.Node])
		}
		next[e.Node]++
	}
	for p, n := range next {
		if n != perProd {
			t.Errorf("producer %d: %d events in output, want %d", p, n, perProd)
		}
	}
}

// TestStreamSinkCloseIdempotent double-closes and checks the writer is
// only torn down once.
func TestStreamSinkCloseIdempotent(t *testing.T) {
	var out bytes.Buffer
	sink := NewStreamSink(&out, nil)
	sink.Record(streamEvent(1))
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sink.Written(); got != 1 {
		t.Errorf("Written() = %d after double close, want 1", got)
	}
}
