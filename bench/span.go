package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	name string
	// start and end are nanoseconds since the recorder's base.
	start, end int64
	// parent indexes the span that caused this one; -1 for a root.
	parent int32
	// req is the connection the call served, so the spans of one request
	// share an identifier; -1 when the call serves none.
	req int64
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory; nothing is written until the workload
// ends. It tracks the open span so a nested begin knows its parent. One
// recorder serves one goroutine.
type recorder struct {
	base  time.Time
	spans []span
	open  int32
}

func newRecorder(base time.Time) *recorder {
	return &recorder{base: base, open: -1}
}

// begin opens a span under the currently open one and returns its index.
func (r *recorder) begin(name string, req int64) int32 {
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, parent: r.open, req: req})
	r.open = id
	r.spans[id].start = int64(time.Since(r.base))
	return id
}

// end closes the span begin returned; spans close in LIFO order.
func (r *recorder) end(id int32) {
	s := &r.spans[id]
	s.end = int64(time.Since(r.base))
	r.open = s.parent
}

// selfTimes returns, per span, its duration minus the durations of its
// direct children: the time spent in the layer itself. Children of one
// parent never overlap (each recorder is single-threaded), so the sum of
// their durations is the part of the interval they cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	durs []float64 // nanoseconds, one per span
	self int64     // summed self time, nanoseconds
}

// aggregate groups spans by name.
func aggregate(spans []span) map[string]*spanStats {
	self := selfTimes(spans)
	out := make(map[string]*spanStats)
	for i, s := range spans {
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		st.durs = append(st.durs, float64(s.dur()))
		st.self += self[i]
	}
	return out
}

// pct is the nearest-rank percentile of the named spans' durations in
// the given unit (nanoseconds per unit); 0 when there are none.
func pct(agg map[string]*spanStats, name string, q, perUnit float64) float64 {
	st := agg[name]
	if st == nil {
		return 0
	}
	return percentile(sortedCopy(st.durs), q) / perUnit
}

// selfSeconds sums the self time of the named spans.
func selfSeconds(agg map[string]*spanStats, names ...string) float64 {
	var ns int64
	for _, n := range names {
		if st := agg[n]; st != nil {
			ns += st.self
		}
	}
	return float64(ns) / 1e9
}

// writeSpans writes every recorder's spans as JSON lines under dir, one
// object per span: {"rec","id","parent","name","req","start_ns","end_ns"}.
// id and parent are indexes within one recorder (rec).
func writeSpans(dir, workload string, recs ...*recorder) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for ri, r := range recs {
		for i, s := range r.spans {
			line = append(line[:0], `{"rec":`...)
			line = strconv.AppendInt(line, int64(ri), 10)
			line = append(line, `,"id":`...)
			line = strconv.AppendInt(line, int64(i), 10)
			line = append(line, `,"parent":`...)
			line = strconv.AppendInt(line, int64(s.parent), 10)
			line = append(line, `,"name":`...)
			line = strconv.AppendQuote(line, s.name)
			line = append(line, `,"req":`...)
			line = strconv.AppendInt(line, s.req, 10)
			line = append(line, `,"start_ns":`...)
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, `,"end_ns":`...)
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, "}\n"...)
			if _, err := w.Write(line); err != nil {
				_ = f.Close()
				return "", err
			}
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}
