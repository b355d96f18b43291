package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// latencyBuckets is the fixed bucket count of a LatencyHist: bucket b
// holds observations whose nanosecond count has bit length b, i.e.
// durations in [2^(b-1), 2^b) ns, with bucket 0 reserved for <= 0. A
// 64-entry array covers every possible time.Duration, so Observe never
// grows anything and the whole histogram is one flat allocation.
const latencyBuckets = 64

// LatencyHist is a lock-free log2-bucketed latency histogram. Observe is
// a single atomic add into a fixed array plus two atomic adds for the
// count/sum pair: no allocation, no sorting, no CAS loop, which makes it
// safe to call from router dispatch and coordinator hot paths. The zero
// value is ready to use and a nil *LatencyHist is a no-op, matching the
// package's other instruments.
//
// The price of the fixed log2 layout is resolution: a quantile read from
// the exposed buckets is known only to within a factor of two. That is
// ample for order-of-magnitude latency questions, which is what the type
// exists for.
type LatencyHist struct {
	buckets [latencyBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

// latencyBucket maps a duration to its bucket index.
func latencyBucket(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d))
}

// latencyBound returns bucket b's upper bound in seconds (exclusive):
// 2^b nanoseconds.
func latencyBound(b int) float64 {
	return math.Ldexp(1e-9, b)
}

// Observe records one duration (non-positive durations land in bucket 0).
func (h *LatencyHist) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.buckets[latencyBucket(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// add merges n observations of duration d in one step; the runtime
// sampler uses it to fold runtime/metrics histogram deltas in bulk.
func (h *LatencyHist) add(d time.Duration, n int64) {
	if h == nil || n <= 0 {
		return
	}
	h.buckets[latencyBucket(d)].Add(n)
	h.count.Add(n)
	h.sum.Add(int64(d) * n)
}

// Count returns the number of observations. A nil histogram reads zero.
func (h *LatencyHist) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed duration.
func (h *LatencyHist) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// write renders the histogram in Prometheus text format. Cumulative
// bucket lines are emitted only where the count advances (plus +Inf), so
// the 64-bucket layout does not bloat the exposition.
func (h *LatencyHist) write(w io.Writer, name string, labels, values []string) error {
	cum := int64(0)
	for b := 0; b < latencyBuckets; b++ {
		n := h.buckets[b].Load()
		if n == 0 {
			continue
		}
		cum += n
		le := fmt.Sprintf("%g", latencyBound(b))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(labels, values, le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(labels, values, "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", name, labelString(labels, values, ""), h.Sum().Seconds()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(labels, values, ""), h.Count())
	return err
}

// Latency returns the unlabeled log2 latency histogram with the given
// name, registering it on first use. A nil registry returns a nil
// (no-op) histogram.
func (r *Registry) Latency(name, help string) *LatencyHist {
	if r == nil {
		return nil
	}
	return r.family(name, help, kindLatency, nil).child(nil).(*LatencyHist)
}

// LatencyVec is a log2 latency histogram family keyed by label values.
type LatencyVec struct{ f *family }

// LatencyVec returns the labeled latency family with the given name.
func (r *Registry) LatencyVec(name, help string, labels ...string) *LatencyVec {
	if r == nil {
		return nil
	}
	return &LatencyVec{f: r.family(name, help, kindLatency, labels)}
}

// With returns the child histogram for the label values, creating it on
// first use. Hot paths must resolve children once and keep the handle:
// the handle's Observe is allocation-free, the lookup is not.
func (v *LatencyVec) With(values ...string) *LatencyHist {
	if v == nil {
		return nil
	}
	return v.f.child(values).(*LatencyHist)
}
