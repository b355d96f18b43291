package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Ring is an in-memory sink keeping the most recent events in a fixed
// circular buffer. Intended for tests and live inspection.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	full  bool
	total int64
}

// NewRing creates a ring sink holding up to n events (n < 1 becomes 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, n)}
}

// Record implements Sink.
func (r *Ring) Record(e Event) {
	r.mu.Lock()
	r.buf[r.next] = e
	r.next++
	r.total++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		out := make([]Event, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Total returns the number of events recorded over the ring's lifetime
// (including events that have been overwritten).
func (r *Ring) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Count sums the multiplicity (N) of retained events of the given kind.
func (r *Ring) Count(kind EventKind) int64 {
	var n int64
	for _, e := range r.Events() {
		if e.Kind == kind {
			n += int64(e.N)
		}
	}
	return n
}

// Buffer is an unbounded in-memory sink retaining every event in arrival
// order. The parallel experiment engine gives each concurrently-running
// cell its own Buffer-backed tracer and forwards the captured events to
// the shared sinks in deterministic cell order once the cell completes
// (Tracer.ForwardBatch), so trace output is identical at any worker count.
type Buffer struct {
	mu     sync.Mutex
	events []Event
}

// NewBuffer creates an empty buffer sink.
func NewBuffer() *Buffer { return &Buffer{} }

// Record implements Sink.
func (b *Buffer) Record(e Event) {
	b.mu.Lock()
	b.events = append(b.events, e)
	b.mu.Unlock()
}

// RecordBatch implements BatchSink: the whole slice is appended under one
// lock acquisition.
func (b *Buffer) RecordBatch(events []Event) {
	b.mu.Lock()
	b.events = append(b.events, events...)
	b.mu.Unlock()
}

// Events returns the recorded events in arrival order.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, len(b.events))
	copy(out, b.events)
	return out
}

// Take returns the recorded events in arrival order without copying. The
// returned slice aliases the buffer's storage, so it is valid only until
// the next Record or after Reset is followed by new records. The parallel
// engine drains each completed cell with Take, forwards, then Reset.
func (b *Buffer) Take() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.events
}

// Reset forgets the recorded events while keeping the buffer's capacity,
// so a pooled buffer's storage is reused by the next cell.
func (b *Buffer) Reset() {
	b.mu.Lock()
	b.events = b.events[:0]
	b.mu.Unlock()
}

// Len returns the number of recorded events.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}

// JSONL is a sink writing one JSON object per event, one per line, to a
// buffered writer.
type JSONL struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	w   io.Writer
	err error
}

// NewJSONL creates a JSONL sink over w. Close flushes the buffer and, if
// w is an io.Closer, closes it.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &JSONL{bw: bw, enc: json.NewEncoder(bw), w: w}
}

// Record implements Sink. The first write error is retained (see Err)
// and later records become no-ops.
func (j *JSONL) Record(e Event) {
	j.mu.Lock()
	if j.err == nil {
		j.err = j.enc.Encode(e)
	}
	j.mu.Unlock()
}

// RecordBatch implements BatchSink: the whole slice is encoded under one
// lock acquisition, producing the same lines Record would.
func (j *JSONL) RecordBatch(events []Event) {
	j.mu.Lock()
	for i := range events {
		if j.err != nil {
			break
		}
		j.err = j.enc.Encode(events[i])
	}
	j.mu.Unlock()
}

// Err returns the first write error, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// flush writes the buffered lines through to the underlying writer.
func (j *JSONL) flush() {
	j.mu.Lock()
	if err := j.bw.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
}

// Close flushes buffered lines and closes the underlying writer when it
// is an io.Closer.
func (j *JSONL) Close() error {
	j.flush()
	j.mu.Lock()
	defer j.mu.Unlock()
	if c, ok := j.w.(io.Closer); ok {
		if err := c.Close(); err != nil && j.err == nil {
			j.err = err
		}
	}
	return j.err
}

// ReadJSONL decodes a JSONL trace written by a JSONL sink.
func ReadJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, e)
	}
}

// MetricsSink aggregates events into a Registry: one
// drtp_events_total{kind,scheme} counter family (incremented by each
// event's multiplicity N) plus the families that carry a label it lacks:
// drtp_cdp_drops_total{reason} (hop-limit vs detour, so BF's flooding
// overhead is attributable), drtp_signal_retries_total{op} and
// drtp_faults_injected_total{action}. It is how live processes turn the
// event stream into /metrics families.
type MetricsSink struct {
	events   *CounterVec
	cdpDrops *CounterVec
	retries  *CounterVec
	faults   *CounterVec
}

// NewMetricsSink creates a sink aggregating into reg.
func NewMetricsSink(reg *Registry) *MetricsSink {
	return &MetricsSink{
		events: reg.CounterVec("drtp_events_total",
			"Protocol events by kind and routing scheme.", "kind", "scheme"),
		cdpDrops: reg.CounterVec("drtp_cdp_drops_total",
			"Channel-discovery packets dropped, by discarding test.", "reason"),
		retries: reg.CounterVec("drtp_signal_retries_total",
			"Signalling round trips retransmitted, by operation.", "op"),
		faults: reg.CounterVec("drtp_faults_injected_total",
			"Faults applied by the chaos layer, by action.", "action"),
	}
}

// Record implements Sink.
func (m *MetricsSink) Record(e Event) {
	scheme := e.Scheme
	if scheme == "" {
		scheme = "-"
	}
	m.events.With(e.Kind.String(), scheme).Add(int64(e.N))
	switch e.Kind {
	case EvCDPDrop:
		reason := e.Reason
		if reason == "" {
			reason = "-"
		}
		m.cdpDrops.With(reason).Add(int64(e.N))
	case EvRetry:
		op := e.Reason
		if op == "" {
			op = "-"
		}
		m.retries.With(op).Add(int64(e.N))
	case EvFaultInjected:
		action := e.Reason
		if action == "" {
			action = "-"
		}
		m.faults.With(action).Add(int64(e.N))
	}
}
