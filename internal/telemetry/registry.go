// Package telemetry is the runtime observability layer: a lock-cheap
// metrics registry (counters, gauges, log2 latency histograms with atomic
// fast paths, labeled families) plus a structured event bus (Tracer) with
// pluggable sinks. Both are nil-safe: a nil *Tracer and a nil *Registry are valid
// no-op instruments, so hot paths can stay instrumented unconditionally
// without branching on configuration.
//
// The registry exposes Prometheus text format (WritePrometheus, Handler)
// for live processes such as cmd/drtpnode; simulations aggregate the same
// families through a MetricsSink and print them with -metrics-summary.
package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; all methods are safe for concurrent use and lock-free.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count. A nil counter reads zero.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add applies a delta.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value. A nil gauge reads zero.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// metric kinds, matching the Prometheus TYPE annotations.
type metricKind uint8

const (
	kindCounter metricKind = iota + 1
	kindGauge
	// kindLatency is the log2-bucketed LatencyHist; it exposes as a
	// Prometheus histogram with power-of-two second bounds.
	kindLatency
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindLatency:
		return "histogram"
	default:
		return "untyped"
	}
}

// family is one named metric with a fixed label schema and one child per
// distinct label-value combination.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string

	mu       sync.RWMutex
	order    []string // child keys in creation order
	children map[string]any
	values   map[string][]string // child key -> label values
}

// childKey joins label values; \x1f never occurs in sane label values.
func childKey(values []string) string { return strings.Join(values, "\x1f") }

// child returns (creating if needed) the child for the label values.
func (f *family) child(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := childKey(values)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	switch f.kind {
	case kindCounter:
		c = &Counter{}
	case kindGauge:
		c = &Gauge{}
	case kindLatency:
		c = &LatencyHist{}
	}
	f.children[key] = c
	vs := make([]string, len(values))
	copy(vs, values)
	f.values[key] = vs
	f.order = append(f.order, key)
	return c
}

// Registry holds metric families. The zero value is not usable; create
// one with NewRegistry. A nil *Registry hands out nil instruments, which
// are themselves no-ops, so optional wiring needs no branches.
type Registry struct {
	mu       sync.RWMutex
	byName   map[string]*family
	families []*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family finds or creates a family, enforcing schema consistency.
func (r *Registry) family(name, help string, kind metricKind, labels []string) *family {
	r.mu.RLock()
	f, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if f, ok = r.byName[name]; !ok {
			ls := make([]string, len(labels))
			copy(ls, labels)
			f = &family{
				name: name, help: help, kind: kind, labels: ls,
				children: make(map[string]any), values: make(map[string][]string),
			}
			r.byName[name] = f
			r.families = append(r.families, f)
		}
		r.mu.Unlock()
	}
	if f.kind != kind || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("telemetry: metric %q re-registered with a different schema", name))
	}
	return f
}

// Counter returns the unlabeled counter with the given name, registering
// it on first use. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.family(name, help, kindCounter, nil).child(nil).(*Counter)
}

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.family(name, help, kindGauge, nil).child(nil).(*Gauge)
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family with the given name.
// A nil registry returns a nil vec whose With returns nil counters.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.family(name, help, kindCounter, labels)}
}

// With returns the child counter for the label values, creating it on
// first use. Hot paths should resolve children once and keep the handle.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(values).(*Counter)
}

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family with the given name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.family(name, help, kindGauge, labels)}
}

// With returns the child gauge for the label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.child(values).(*Gauge)
}

// WritePrometheus writes every family in Prometheus text exposition
// format (families in registration order, children in creation order).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	families := make([]*family, len(r.families))
	copy(families, r.families)
	r.mu.RUnlock()
	for _, f := range families {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if len(f.order) == 0 {
		return nil
	}
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}
	for _, key := range f.order {
		values := f.values[key]
		switch c := f.children[key].(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, values, ""), c.Value()); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, values, ""), c.Value()); err != nil {
				return err
			}
		case *LatencyHist:
			if err := c.write(w, f.name, f.labels, values); err != nil {
				return err
			}
		}
	}
	return nil
}

// labelString renders {k="v",...}; le, when non-empty, is appended as the
// histogram bucket bound label.
func labelString(labels, values []string, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the text exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
