package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/rtcl/drtp/internal/metrics"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files with observed output")

// runnerCase is one experiment runner reduced to its table. lambda is the
// operating point of the runners that take a single one (drtpsim -lambda);
// the others sweep Params.Lambdas.
type runnerCase struct {
	name string
	run  func(p Params, lambda float64) (*metrics.Table, error)
}

// asTable passes a runner's table on, or its error.
func asTable[R interface{ Table() *metrics.Table }](r R, err error) (*metrics.Table, error) {
	if err != nil {
		return nil, err
	}
	return r.Table(), nil
}

// runnerCases lists every runner that renders one table, set up as
// drtpsim -exp <name> sets it up; replay replays testdata/replay.jsonl.
var runnerCases = []runnerCase{
	{"ablation", func(p Params, _ float64) (*metrics.Table, error) { return asTable(RunAblation(p)) }},
	{"multibackup", func(p Params, _ float64) (*metrics.Table, error) { return asTable(RunMultiBackup(p)) }},
	{"overhead", func(p Params, lambda float64) (*metrics.Table, error) {
		return asTable(RunOverhead(p, scenario.UT, lambda))
	}},
	{"availability", func(p Params, lambda float64) (*metrics.Table, error) {
		ap := DefaultAvailabilityParams(p.Degree)
		ap.Params = p
		ap.Lambda = lambda
		return asTable(RunAvailability(ap))
	}},
	{"chaos", func(p Params, lambda float64) (*metrics.Table, error) {
		p.Chaos = DefaultChaosSchedule(p.Seed)
		return asTable(RunChaos(ChaosParams{Params: p, Lambda: lambda}))
	}},
	{"qos", func(p Params, lambda float64) (*metrics.Table, error) { return asTable(RunQoS(p, lambda)) }},
	{"topologies", func(p Params, lambda float64) (*metrics.Table, error) {
		return asTable(RunTopologySensitivity(p, lambda))
	}},
	{"replay", func(p Params, _ float64) (*metrics.Table, error) { return RunReplay(p, "testdata/replay.jsonl") }},
}

// traced runs one experiment with a JSONL trace written into a sha256
// hash. It returns the rendered table followed by the digest line
// every golden file ends with.
func traced(t *testing.T, run func(*telemetry.Tracer) (*metrics.Table, error)) []byte {
	t.Helper()
	h := sha256.New()
	tracer := telemetry.NewTracer(telemetry.NewJSONL(h))
	tbl, err := run(tracer)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "trace sha256 %x\n", h.Sum(nil))
	return buf.Bytes()
}

// checkGolden compares got with testdata/name, rewriting the file first
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output deviates from %s (rerun with -update if intended):\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestRunnersGolden pins each runner's quick table — drtpsim -exp <name>
// -quick at its default seed, degree and lambda — and the sha256 of the
// run's JSONL trace, so a change to any number or event shows up as a
// byte diff. Refresh with go test ./internal/experiments -run Golden -update.
func TestRunnersGolden(t *testing.T) {
	for _, rc := range runnerCases {
		t.Run(rc.name, func(t *testing.T) {
			checkGolden(t, rc.name+"_quick.golden", traced(t, func(tr *telemetry.Tracer) (*metrics.Table, error) {
				p := quickFig4Params()
				p.Telemetry = tr
				return rc.run(p, 0.5)
			}))
		})
	}
}

// TestParallelRunners is the engine's determinism contract for every
// runner: at workers=1 and workers=8 the table and the JSONL trace are
// byte-identical.
func TestParallelRunners(t *testing.T) {
	for _, rc := range runnerCases {
		t.Run(rc.name, func(t *testing.T) {
			run := func(workers int) (table string, trace []byte) {
				var out bytes.Buffer
				p := tinyParams()
				p.Workers = workers
				p.Telemetry = telemetry.NewTracer(telemetry.NewJSONL(&out))
				tbl, err := rc.run(p, 0.3)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Telemetry.Close(); err != nil {
					t.Fatal(err)
				}
				return tbl.String(), out.Bytes()
			}
			serialTable, serialTrace := run(1)
			parallelTable, parallelTrace := run(8)
			if serialTable != parallelTable {
				t.Errorf("table differs between workers=1 and workers=8:\nserial:\n%s\nparallel:\n%s",
					serialTable, parallelTable)
			}
			if len(serialTrace) == 0 {
				t.Fatal("run streamed no telemetry")
			}
			if !bytes.Equal(serialTrace, parallelTrace) {
				t.Errorf("streamed trace bytes differ: %d bytes at workers=1, %d at workers=8",
					len(serialTrace), len(parallelTrace))
			}
		})
	}
}
