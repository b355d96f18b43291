package telemetry

import (
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// streamQueue is a StreamSink's queue capacity: large enough to absorb a
// router's burstiest signalling epochs without drops, small enough that
// the sink's memory stays bounded regardless of run length.
const streamQueue = 8192

// StreamSink puts a fixed-capacity queue in front of a JSONL sink, so
// Record never blocks the emitting loop (router dispatch, coordinator
// workers) on disk latency. One writer goroutine drains the queue in
// arrival order through the JSONL, so the bytes equal a plain JSONL fed
// the same events whenever nothing drops. When the queue is full the
// event is dropped and counted (Dropped, and when instrumented the
// drtp_telemetry_stream_dropped_total series), and Close appends one
// trace-dropped event carrying the count, so the file itself says it is
// incomplete.
type StreamSink struct {
	ch      chan Event
	done    chan struct{}
	out     *JSONL
	dropped atomic.Int64
	written atomic.Int64
	closing sync.Once

	// Optional registry instrumentation (nil-safe no-ops when absent).
	mDropped *Counter
	mWritten *Counter
}

// NewStreamSink creates a streaming sink over w and starts its writer
// goroutine. Close flushes and, when w is an io.Closer, closes it. reg,
// which may be nil, receives the sink's drop/write counters so queue
// overflow shows up on /metrics.
func NewStreamSink(w io.Writer, reg *Registry) *StreamSink {
	s := &StreamSink{
		ch:   make(chan Event, streamQueue),
		done: make(chan struct{}),
		out:  NewJSONL(w),
		mDropped: reg.Counter("drtp_telemetry_stream_dropped_total",
			"Events dropped by the streaming trace sink on queue overflow."),
		mWritten: reg.Counter("drtp_telemetry_stream_written_total",
			"Events written by the streaming trace sink."),
	}
	go s.run()
	return s
}

// Record implements Sink. It never blocks: when the queue is full the
// event is dropped and the drop counters incremented.
func (s *StreamSink) Record(e Event) {
	select {
	case s.ch <- e:
	default:
		s.dropped.Add(1)
		s.mDropped.Inc()
	}
}

// run is the writer goroutine: it drains the queue in arrival order,
// letting the JSONL buffer batch encodes, and flushes whenever the queue
// goes idle so a tailing reader sees events promptly.
func (s *StreamSink) run() {
	defer close(s.done)
	for {
		select {
		case e, ok := <-s.ch:
			if !ok {
				return
			}
			s.write(e)
		default:
			s.out.flush()
			e, ok := <-s.ch
			if !ok {
				return
			}
			s.write(e)
		}
	}
}

func (s *StreamSink) write(e Event) {
	s.out.Record(e)
	if s.out.Err() == nil {
		s.written.Add(1)
		s.mWritten.Inc()
	}
}

// Dropped returns how many events were discarded on queue overflow.
func (s *StreamSink) Dropped() int64 { return s.dropped.Load() }

// Written returns how many events the writer goroutine has encoded.
func (s *StreamSink) Written() int64 { return s.written.Load() }

// Err returns the first write error, if any.
func (s *StreamSink) Err() error { return s.out.Err() }

// Close stops accepting events, waits for the writer goroutine to drain
// the queue, appends the trace-dropped trailer when anything was
// dropped, then flushes and closes the underlying writer. The trailer is
// not a recorded event: Written() + Dropped() stays the number of
// Records. Producers must stop recording before Close is called: a
// Record after Close panics (send on the closed queue), which makes that
// misuse loud instead of lossy.
func (s *StreamSink) Close() error {
	s.closing.Do(func() {
		close(s.ch)
		<-s.done
		if n := s.dropped.Load(); n > 0 {
			s.out.Record(Event{T: float64(time.Now().UnixNano()) / 1e9, Kind: EvTraceDropped,
				Conn: -1, Node: -1, Link: -1, Hops: -1, N: int(n)})
		}
		_ = s.out.Close()
	})
	return s.Err()
}
