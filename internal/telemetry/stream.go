package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// DefaultStreamQueue is the queue capacity a StreamSink gets when the
// caller passes a non-positive one: large enough to absorb the burstiest
// evaluation epochs of a fig4-scale sweep without drops, small enough
// that the sink's memory stays bounded regardless of run length.
const DefaultStreamQueue = 8192

// StreamSink is a non-blocking batched JSONL writer: events are handed
// to a single writer goroutine over a fixed-capacity queue, so Record
// never blocks the emitting loop (router dispatch, coordinator workers,
// experiment cells) on disk latency. When the queue is full the event is
// dropped and counted instead of stalling the producer — the explicit
// Dropped counter (and, when instrumented, the
// drtp_telemetry_stream_dropped_total series) makes the loss visible
// rather than silent.
//
// Because one goroutine drains the queue in arrival order, the bytes
// written are identical to a plain JSONL sink fed the same events
// whenever no drop occurs.
type StreamSink struct {
	ch      chan Event
	done    chan struct{}
	w       io.Writer
	bw      *bufio.Writer
	enc     *json.Encoder
	err     atomic.Pointer[error]
	dropped atomic.Int64
	written atomic.Int64
	closing sync.Once

	// lossless switches Record from drop-on-overflow to
	// block-on-overflow (see NewLosslessStreamSink).
	lossless bool

	// Optional registry instrumentation (nil-safe no-ops when absent).
	mDropped *Counter
	mWritten *Counter
}

// NewStreamSink creates a streaming sink over w with the given queue
// capacity (DefaultStreamQueue when non-positive) and starts its writer
// goroutine. Close flushes the batch buffer and, when w is an io.Closer,
// closes it. reg, which may be nil, receives the sink's drop/write
// counters so queue overflow shows up on /metrics.
func NewStreamSink(w io.Writer, queue int, reg *Registry) *StreamSink {
	if queue <= 0 {
		queue = DefaultStreamQueue
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	s := &StreamSink{
		ch:   make(chan Event, queue),
		done: make(chan struct{}),
		w:    w,
		bw:   bw,
		enc:  json.NewEncoder(bw),
		mDropped: reg.Counter("drtp_telemetry_stream_dropped_total",
			"Events dropped by the streaming trace sink on queue overflow."),
		mWritten: reg.Counter("drtp_telemetry_stream_written_total",
			"Events written by the streaming trace sink."),
	}
	go s.run()
	return s
}

// NewLosslessStreamSink is NewStreamSink with backpressure instead of
// drops: when the queue is full, Record blocks until the writer frees a
// slot. Memory stays bounded by the queue and the trace stays complete,
// at the price of producers occasionally waiting on disk — the right
// trade for offline analysis pipelines (the simulator's reconciliation
// and golden tests require every event), the wrong one for live routers.
func NewLosslessStreamSink(w io.Writer, queue int, reg *Registry) *StreamSink {
	s := NewStreamSink(w, queue, reg)
	s.lossless = true
	return s
}

// Record implements Sink. In the default mode it never blocks: when the
// queue is full the event is dropped and the drop counters incremented.
// A lossless sink blocks instead.
func (s *StreamSink) Record(e Event) {
	if s.lossless {
		s.ch <- e
		return
	}
	select {
	case s.ch <- e:
	default:
		s.dropped.Add(1)
		s.mDropped.Inc()
	}
}

// run is the writer goroutine: it drains the queue in arrival order,
// letting the bufio layer batch encodes, and flushes whenever the queue
// goes idle so a tailing reader sees events promptly.
func (s *StreamSink) run() {
	defer close(s.done)
	for {
		select {
		case e, ok := <-s.ch:
			if !ok {
				s.flush()
				return
			}
			s.encode(e)
		default:
			s.flush()
			e, ok := <-s.ch
			if !ok {
				return
			}
			s.encode(e)
		}
	}
}

func (s *StreamSink) encode(e Event) {
	if s.err.Load() != nil {
		return
	}
	if err := s.enc.Encode(e); err != nil {
		s.err.CompareAndSwap(nil, &err)
		return
	}
	s.written.Add(1)
	s.mWritten.Inc()
}

func (s *StreamSink) flush() {
	if err := s.bw.Flush(); err != nil {
		s.err.CompareAndSwap(nil, &err)
	}
}

// Dropped returns how many events were discarded on queue overflow.
func (s *StreamSink) Dropped() int64 { return s.dropped.Load() }

// Written returns how many events the writer goroutine has encoded.
func (s *StreamSink) Written() int64 { return s.written.Load() }

// Err returns the first write error, if any.
func (s *StreamSink) Err() error {
	if p := s.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Close stops accepting events, waits for the writer goroutine to drain
// the queue, flushes the batch buffer and closes the underlying writer
// when it is an io.Closer. Producers must stop recording before Close is
// called: a Record after Close panics (send on the closed queue), so a
// tracer's sinks must outlive every emitter.
func (s *StreamSink) Close() error {
	s.closing.Do(func() {
		// Producers must stop emitting before Close (Tracer.Close runs
		// after the last Emit); a Record after Close would panic on the
		// closed queue, which makes that misuse loud instead of lossy.
		close(s.ch)
	})
	<-s.done
	if c, ok := s.w.(io.Closer); ok {
		if err := c.Close(); err != nil {
			s.err.CompareAndSwap(nil, &err)
		}
	}
	return s.Err()
}
