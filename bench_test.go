package drtp_test

// The one benchmark CI's bench-guard job runs: the Figure 4/5 cell set at
// fixed worker counts, on a scaled-down parameter point (smaller network,
// shorter horizon). Everything else that measures performance lives in
// the ledger — `go run ./bench` / `bash bench/run.sh`, see bench/README.md.

import (
	"fmt"
	"testing"

	"github.com/rtcl/drtp"
)

// benchParams returns the scaled-down evaluation point.
func benchParams() drtp.ExperimentParams {
	p := drtp.DefaultExperimentParams(3)
	p.Nodes = 30
	p.Duration = 120
	p.Warmup = 60
	p.EvalInterval = 20
	p.Lambdas = []float64{0.2, 0.4, 0.6}
	return p
}

// BenchmarkSweepParallel regenerates the Figure 4/5 cell set at fixed
// worker counts; compare the per-count results to see the parallel
// engine's speedup (the output is bit-identical at every count, so only
// wall-clock differs). On a single-CPU host all counts degrade to the
// serial path.
func BenchmarkSweepParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := benchParams()
			p.Workers = workers
			for i := 0; i < b.N; i++ {
				sweep, err := drtp.RunSweep(p, drtp.PaperSchemes())
				if err != nil {
					b.Fatal(err)
				}
				if len(sweep.Rows) != 2*3*3 {
					b.Fatalf("rows = %d", len(sweep.Rows))
				}
			}
		})
	}
}
