// Package telemetry is the miniature of the repo's telemetry surface that
// the determinism and lockorder fixtures import: a sink interface and a
// tracer whose emissions must not depend on map order.
package telemetry

// Sink receives events.
type Sink interface{ Record(string) }

// Tracer fans events out to its sinks; a nil *Tracer is a no-op.
type Tracer struct {
	sinks []Sink
}

// Event records one event on every sink.
func (t *Tracer) Event(name string) {
	if t == nil {
		return
	}
	for _, s := range t.sinks {
		s.Record(name)
	}
}
