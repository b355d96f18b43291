package experiments

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/metrics"
	"github.com/rtcl/drtp/internal/telemetry"
)

// tinyScaleParams shrinks the web-scale experiment to a tier-1 size while
// keeping every moving part: two schemes, destructive failures with
// recovery sampling, and enough cells for the worker sharding to matter.
func tinyScaleParams() ScaleParams {
	p := tinyParams()
	p.Nodes = 80
	p.Lambdas = []float64{0.3, 0.5}
	return ScaleParams{
		Params:      p,
		Connections: 800,
		Failures:    4,
	}
}

// scaleWithWorkers runs the tiny scale experiment at a worker count.
func scaleWithWorkers(t *testing.T, sp ScaleParams, workers int) *Scale {
	t.Helper()
	sp.Params.Workers = workers
	s, err := RunScale(sp)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScaleWorkersGolden pins the scale experiment's engine contract the
// same way TestParallelSweepGolden pins the sweep's: the rendered table
// and the sha256 of the run's JSONL trace must be byte-identical at
// workers=1 and workers=8, and match the golden file. Refresh with
// go test ./internal/experiments -run ScaleWorkersGolden -update.
func TestScaleWorkersGolden(t *testing.T) {
	before := runtime.NumGoroutine()
	run := func(workers int) []byte {
		return traced(t, func(tr *telemetry.Tracer) (*metrics.Table, error) {
			sp := tinyScaleParams()
			sp.Params.Telemetry = tr
			return scaleWithWorkers(t, sp, workers).Table(), nil
		})
	}
	serial, parallel := run(1), run(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("scale table differs between workers=1 and workers=8:\nserial:\n%s\nparallel:\n%s",
			serial, parallel)
	}
	// RunScale leaves no goroutine behind: its heap watcher stops and its
	// worker pool drains before it returns.
	for polls := 0; runtime.NumGoroutine() > before; polls++ {
		if polls == 5000 {
			t.Fatalf("%d goroutines after RunScale, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	checkGolden(t, "scale_small.golden", serial)
}

// TestScaleStreamedTraceBytes mirrors TestParallelSweepStreamedTraceBytes
// for the scale runner: telemetry written through a JSONL sink must be
// byte-identical at workers=1 and workers=8.
func TestScaleStreamedTraceBytes(t *testing.T) {
	traceBytes := func(workers int) []byte {
		var out bytes.Buffer
		sp := tinyScaleParams()
		sp.Params.Telemetry = telemetry.NewTracer(telemetry.NewJSONL(&out))
		sp.Params.Workers = workers
		if _, err := RunScale(sp); err != nil {
			t.Fatal(err)
		}
		if err := sp.Params.Telemetry.Close(); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	serial := traceBytes(1)
	parallel := traceBytes(8)
	if len(serial) == 0 {
		t.Fatal("scale run streamed no telemetry")
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("streamed scale trace bytes differ: %d bytes at workers=1, %d at workers=8",
			len(serial), len(parallel))
	}
}

// TestScaleRecoverySamples asserts the recovery-latency pipeline end to
// end: destructive failures must produce samples, recovered samples must
// have positive activation lengths, and the percentiles must be ordered.
func TestScaleRecoverySamples(t *testing.T) {
	s := scaleWithWorkers(t, tinyScaleParams(), 4)
	sawSamples := false
	for _, r := range s.Rows {
		if r.Result.FailuresApplied == 0 {
			t.Errorf("%s/%v: no destructive failures applied", r.Scheme, r.Lambda)
		}
		for _, l := range r.Result.Recovery {
			sawSamples = true
			if l.Switched && l.Activate <= 0 {
				t.Errorf("%s/%v: recovered sample with non-positive activation: %+v",
					r.Scheme, r.Lambda, l)
			}
			if l.Detect < 0 {
				t.Errorf("%s/%v: negative detect distance: %+v", r.Scheme, r.Lambda, l)
			}
		}
		if !(r.TotalP50 <= r.TotalP90 && r.TotalP90 <= r.TotalP99) {
			t.Errorf("%s/%v: percentiles out of order: p50=%d p90=%d p99=%d",
				r.Scheme, r.Lambda, r.TotalP50, r.TotalP90, r.TotalP99)
		}
	}
	if !sawSamples {
		t.Fatal("no recovery-latency samples collected across any cell")
	}
}

// TestScaleSummaryJSON sanity-checks the machine-readable roll-up the
// smoke scripts parse, the link-state database's bytes by structure
// included.
func TestScaleSummaryJSON(t *testing.T) {
	s := scaleWithWorkers(t, tinyScaleParams(), 4)
	sum := s.Summary()
	if sum.Accepted <= 0 || sum.Arrivals < sum.Accepted {
		t.Fatalf("implausible admission counts: %+v", sum)
	}
	if sum.EstabPerSec <= 0 || sum.BytesPerConn <= 0 || sum.PeakHeapBytes == 0 {
		t.Fatalf("missing wall-clock metrics: %+v", sum)
	}
	js, err := s.SummaryJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.LSDBBytes) != len(s.Rows) {
		t.Fatalf("%d cells' bytes by structure for %d cells", len(sum.LSDBBytes), len(s.Rows))
	}
	for _, c := range sum.LSDBBytes {
		if c.Columns <= 0 || c.Registries <= 0 || c.LinkRecords <= 0 || c.ChangeLog <= 0 {
			t.Fatalf("%s λ=%v: implausible bytes by structure: %+v", c.Scheme, c.Lambda, c.Footprint)
		}
	}
	for _, want := range []string{`"establishments_per_sec"`, `"bytes_per_conn"`, `"peak_heap_bytes"`,
		`"lsdb_bytes"`, `"scheme"`, `"columns"`, `"registries"`, `"primaries"`, `"lset_table"`, `"link_records"`, `"change_log"`, `"scratch"`} {
		if !bytes.Contains([]byte(js), []byte(want)) {
			t.Fatalf("SCALE_JSON missing %s:\n%s", want, js)
		}
	}
}
