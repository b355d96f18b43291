package telemetry_test

import (
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/telemetry"
)

// Every benchmark resets the timer after constructing its instrument:
// registry construction and family registration allocate, and at small
// -benchtime values (a 1x pass for alloc counts) that
// setup would otherwise dominate the measurement and misreport the hot
// path as allocating.

// BenchmarkNilTracerEmit measures the disabled fast path a nil tracer
// adds to an instrumented call site — the overhead every hot path pays
// when telemetry is off (expected ~1ns, well under the 5ns budget).
func BenchmarkNilTracerEmit(b *testing.B) {
	var tr *telemetry.Tracer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ConnEstablish("D-LSR", 0, int64(i), 4)
	}
}

// BenchmarkSinklessTracerEmit measures a non-nil tracer with no sinks —
// the other no-op shape.
func BenchmarkSinklessTracerEmit(b *testing.B) {
	tr := telemetry.NewTracer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ConnEstablish("D-LSR", 0, int64(i), 4)
	}
}

// BenchmarkRingEmit measures the enabled path into the in-memory ring.
func BenchmarkRingEmit(b *testing.B) {
	tr := telemetry.NewTracer(telemetry.NewRing(1024))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ConnEstablish("D-LSR", 0, int64(i), 4)
	}
}

// BenchmarkCounterAdd measures the registry counter fast path.
func BenchmarkCounterAdd(b *testing.B) {
	c := telemetry.NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkCounterAddParallel measures contended atomic increments.
func BenchmarkCounterAddParallel(b *testing.B) {
	c := telemetry.NewRegistry().Counter("bench_total", "")
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

// BenchmarkLatencyObserve measures the log2-bucketed latency histogram's
// observe path — the instrument on per-hop signalling and the setup
// pipeline, required to be allocation-free.
func BenchmarkLatencyObserve(b *testing.B) {
	h := telemetry.NewRegistry().Latency("bench_seconds", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i%1000) * time.Microsecond)
	}
}

// BenchmarkLatencyObserveParallel measures the same path under
// contention, as routers observe from many goroutines at once.
func BenchmarkLatencyObserveParallel(b *testing.B) {
	h := telemetry.NewRegistry().Latency("bench_seconds", "")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(250 * time.Microsecond)
		}
	})
}

// BenchmarkCounterVecWith measures the labeled child lookup (the path to
// avoid in hot loops by caching the child handle).
func BenchmarkCounterVecWith(b *testing.B) {
	cv := telemetry.NewRegistry().CounterVec("bench_total", "", "kind")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cv.With("establish").Inc()
	}
}

// BenchmarkStreamRecord measures the bounded-queue trace sink's producer
// side with a draining writer: one non-blocking channel send per event.
func BenchmarkStreamRecord(b *testing.B) {
	sink := telemetry.NewStreamSink(discardWriter{}, nil)
	defer sink.Close()
	e := telemetry.Event{Kind: telemetry.EvConnEstablish, Scheme: "D-LSR", Hops: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Conn = int64(i)
		sink.Record(e)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
