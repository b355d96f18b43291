package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/rtcl/drtp/internal/metrics"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/telemetry"
)

// quickFig4Params mirrors drtpsim -exp fig4 -quick: the scaled-down
// Figure 4 sweep used as the reproducibility reference point.
func quickFig4Params() Params {
	p := DefaultParams(3)
	p.Nodes = 30
	p.Duration = 160
	p.Warmup = 80
	p.EvalInterval = 20
	p.Lambdas = []float64{0.2, 0.5, 0.7}
	p.Seed = 1
	return p
}

// sweepWithWorkers runs the quick Figure 4 sweep at the given worker
// count.
func sweepWithWorkers(t *testing.T, p Params, workers int) *Sweep {
	t.Helper()
	p.Workers = workers
	s, err := RunSweep(p, PaperSchemes())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestParallelSweepDeterminism is the reproducibility regression test:
// the quick Figure 4 sweep must produce an identical Sweep — every row,
// every aggregate sample, every baseline — at workers=1 and workers=8
// under the same master seed.
func TestParallelSweepDeterminism(t *testing.T) {
	p := quickFig4Params()
	serial := sweepWithWorkers(t, p, 1)
	parallel := sweepWithWorkers(t, p, 8)

	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatalf("row count: serial %d, parallel %d", len(serial.Rows), len(parallel.Rows))
	}
	for i, sr := range serial.Rows {
		pr := parallel.Rows[i]
		if !reflect.DeepEqual(sr, pr) {
			t.Errorf("row %d (%s/%v/%s) differs between workers=1 and workers=8:\nserial:   %+v\nparallel: %+v",
				i, sr.Pattern, sr.Lambda, sr.Scheme, sr, pr)
		}
	}
	if !reflect.DeepEqual(serial.Baselines, parallel.Baselines) {
		t.Error("baseline results differ between workers=1 and workers=8")
	}
}

// TestParallelSweepGolden locks the rendered quick Figure 4 table and the
// sha256 of its JSONL trace to a golden file, so any change to the sweep's
// numeric output or events — including a nondeterminism regression —
// shows up as a byte diff. Refresh with
// go test ./internal/experiments -run ParallelSweepGolden -update.
func TestParallelSweepGolden(t *testing.T) {
	checkGolden(t, "fig4_quick.golden", traced(t, func(tr *telemetry.Tracer) (*metrics.Table, error) {
		p := quickFig4Params()
		p.Telemetry = tr
		return sweepWithWorkers(t, p, 8).Fig4Table(), nil
	}))
}

// TestParallelSweepTelemetryDeterminism asserts the buffered-forwarding
// path: a sweep observed through one shared tracer must record the
// identical event sequence at any worker count.
func TestParallelSweepTelemetryDeterminism(t *testing.T) {
	events := func(workers int) []telemetry.Event {
		buf := telemetry.NewBuffer()
		p := tinyParams()
		p.Telemetry = telemetry.NewTracer(buf)
		p.Workers = workers
		if _, err := RunSweep(p, PaperSchemes()); err != nil {
			t.Fatal(err)
		}
		return buf.Events()
	}
	serial := events(1)
	parallel := events(8)
	if len(serial) == 0 {
		t.Fatal("sweep emitted no telemetry")
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("telemetry event sequences differ: %d events at workers=1, %d at workers=8",
			len(serial), len(parallel))
	}
}

// TestParallelSweepStreamedTraceBytes asserts the full tracing path: a
// sweep traced through a JSONL sink must write byte-identical JSONL at
// workers=1 and workers=8.
func TestParallelSweepStreamedTraceBytes(t *testing.T) {
	traceBytes := func(workers int) []byte {
		var out bytes.Buffer
		p := tinyParams()
		p.Telemetry = telemetry.NewTracer(telemetry.NewJSONL(&out))
		p.Workers = workers
		if _, err := RunSweep(p, PaperSchemes()); err != nil {
			t.Fatal(err)
		}
		if err := p.Telemetry.Close(); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	serial := traceBytes(1)
	parallel := traceBytes(8)
	if len(serial) == 0 {
		t.Fatal("sweep streamed no telemetry")
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("streamed trace bytes differ: %d bytes at workers=1, %d at workers=8",
			len(serial), len(parallel))
	}
}

// TestParallelChaosStreamedTraceBytes pins the batched forwarding path
// under fault injection: a chaos run traced through a JSONL sink must
// write byte-identical JSONL at workers=1 and workers=4. Chaos runs emit
// the densest event mix (retries, dedup hits, fault injections), so this
// is the strongest byte-level probe of the per-worker batch forwarding.
func TestParallelChaosStreamedTraceBytes(t *testing.T) {
	traceBytes := func(workers int) []byte {
		var out bytes.Buffer
		p := tinyChaosParams()
		p.Telemetry = telemetry.NewTracer(telemetry.NewJSONL(&out))
		p.Workers = workers
		if _, err := RunChaos(p); err != nil {
			t.Fatal(err)
		}
		if err := p.Telemetry.Close(); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	serial := traceBytes(1)
	parallel := traceBytes(4)
	if len(serial) == 0 {
		t.Fatal("chaos run streamed no telemetry")
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("streamed chaos trace bytes differ: %d bytes at workers=1, %d at workers=4",
			len(serial), len(parallel))
	}
}

// TestParallelReplicationsDeterminism exercises the replication axis of
// the sharding (multiple topologies in flight at once).
func TestParallelReplicationsDeterminism(t *testing.T) {
	p := tinyParams()
	p.Replications = 3
	serial := sweepWithWorkers(t, p, 1)
	parallel := sweepWithWorkers(t, p, 4)
	if !reflect.DeepEqual(serial.Rows, parallel.Rows) {
		t.Fatal("replicated sweep rows differ between workers=1 and workers=4")
	}
	for _, r := range parallel.Rows {
		if r.FTSample.N() != 3 {
			t.Fatalf("cell %s aggregated %d replications, want 3", r.Scheme, r.FTSample.N())
		}
	}
}

// TestParallelRowIndex pins the map-backed row lookup: repeated lookups
// of one cell must return the identical *SweepRow, and Rows must keep
// first-touch order.
func TestParallelRowIndex(t *testing.T) {
	s := &Sweep{}
	a := s.row(scenario.UT, 0.2, "D-LSR")
	b := s.row(scenario.NT, 0.2, "D-LSR")
	c := s.row(scenario.UT, 0.2, "BF")
	if again := s.row(scenario.UT, 0.2, "D-LSR"); again != a {
		t.Fatal("row lookup did not return the existing cell")
	}
	if again := s.row(scenario.NT, 0.2, "D-LSR"); again != b {
		t.Fatal("pattern must be part of the cell key")
	}
	if again := s.row(scenario.UT, 0.2, "BF"); again != c {
		t.Fatal("scheme must be part of the cell key")
	}
	if len(s.Rows) != 3 || s.Rows[0] != a || s.Rows[1] != b || s.Rows[2] != c {
		t.Fatalf("rows out of first-touch order: %v", s.Rows)
	}
}

// TestRunParallelErrors asserts the engine's error contract: the
// surfaced error is the lowest-indexed one regardless of scheduling.
func TestRunParallelErrors(t *testing.T) {
	errAt := func(bad ...int) func(int) error {
		return func(i int) error {
			for _, b := range bad {
				if i == b {
					return errIndexed(i)
				}
			}
			return nil
		}
	}
	for _, workers := range []int{1, 4, 16} {
		if err := runParallel(workers, 8, errAt()); err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		err := runParallel(workers, 8, errAt(5, 2))
		if want := errIndexed(2); err != want {
			t.Fatalf("workers=%d: error = %v, want %v", workers, err, want)
		}
	}
	if err := runParallel(4, 0, func(int) error { return errIndexed(0) }); err != nil {
		t.Fatalf("n=0 must run nothing, got %v", err)
	}
}

// TestRunParallelCoversAllJobs asserts every index runs exactly once at
// any worker count.
func TestRunParallelCoversAllJobs(t *testing.T) {
	for _, workers := range []int{1, 3, 32} {
		const n = 50
		counts := make([]int, n)
		if err := runParallel(workers, n, func(i int) error {
			counts[i]++ // job i owns slot i; no lock needed
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
			}
		}
	}
}

// errIndexed is a comparable error carrying the failing job index.
type errIndexed int

func (e errIndexed) Error() string { return "job failed" }
