// Package experiments reproduces the paper's evaluation (§6): it wires
// topology generation, scenario replay, the routing schemes and the
// failure sweeps into one runner per table/figure.
//
// The experiment index lives in DESIGN.md; the paper-vs-measured record in
// EXPERIMENTS.md.
package experiments

import (
	"fmt"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/faultinject"
	"github.com/rtcl/drtp/internal/flood"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/rng"
	"github.com/rtcl/drtp/internal/routing"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/telemetry"
	"github.com/rtcl/drtp/internal/topology"
)

// Params configures an evaluation sweep. DefaultParams reproduces the
// paper's setting (Table 1); tests and benchmarks scale it down.
type Params struct {
	// Nodes is the network size (paper: 60).
	Nodes int
	// Degree is the target average node degree E (paper: 3 and 4).
	Degree float64
	// Capacity is the per-direction link bandwidth in units (Table 1's
	// value is unreadable in the source scan; 40 units with UnitBW 1
	// places saturation where the paper reports it — see DESIGN.md).
	Capacity int
	// UnitBW is the constant per-connection bandwidth (bw-req).
	UnitBW int
	// Lambdas is the sweep of per-node arrival rates (requests/minute).
	Lambdas []float64
	// Patterns lists the traffic patterns to evaluate.
	Patterns []scenario.Pattern
	// Duration is the arrival horizon per run, in minutes.
	Duration float64
	// Warmup is the measurement warmup per run, in minutes.
	Warmup float64
	// EvalInterval is the failure-sweep period after warmup, in minutes.
	EvalInterval float64
	// Seed drives topology and scenario generation.
	Seed int64
	// Replications repeats every cell with seeds Seed, Seed+1, ... and
	// reports mean±sd (default 1: a single run, exactly the paper's
	// methodology of one scenario file per point).
	Replications int
	// Workers is the number of goroutines evaluating experiment cells
	// concurrently. Non-positive means one per available CPU
	// (runtime.GOMAXPROCS). Results are bit-identical at any worker
	// count: cell RNG streams derive from stable labels, aggregates and
	// telemetry merge in cell order (see engine.go).
	Workers int
	// Telemetry, when non-nil, receives protocol events from every cell
	// run (see sim.Config.Telemetry). Cells may run concurrently
	// (Workers); each cell emits into a private buffer that the engine
	// forwards to this tracer in deterministic cell order, so one tracer
	// safely observes a whole sweep.
	Telemetry *telemetry.Tracer
	// Chaos, when non-nil, applies the fault-injection schedule to every
	// cell run (see sim.Config.Chaos). The schedule seed, not the worker
	// assignment, drives its randomness, so results stay bit-identical at
	// any worker count.
	Chaos *faultinject.Schedule
}

// DefaultParams returns the paper's evaluation setting for the given
// average degree. Lambda ranges follow Figures 4 and 5: {0.2..0.7} for
// E=3 and {0.4..1.0} for E=4.
func DefaultParams(degree float64) Params {
	lambdas := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
	if degree >= 4 {
		lambdas = []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	}
	return Params{
		Nodes:        60,
		Degree:       degree,
		Capacity:     40,
		UnitBW:       1,
		Lambdas:      lambdas,
		Patterns:     []scenario.Pattern{scenario.UT, scenario.NT},
		Duration:     400,
		Warmup:       160,
		EvalInterval: 10,
		Seed:         1,
	}
}

func (p *Params) setDefaults() {
	if len(p.Patterns) == 0 {
		p.Patterns = []scenario.Pattern{scenario.UT}
	}
	if p.Replications <= 0 {
		p.Replications = 1
	}
}

// Topology generates the evaluation network for these parameters.
func (p Params) Topology() (*graph.Graph, error) {
	return topology.Waxman(topology.WaxmanConfig{
		Nodes:     p.Nodes,
		AvgDegree: p.Degree,
		MinDegree: 2,
		Seed:      p.Seed,
	})
}

// SchemeSpec names a routing scheme and builds a fresh instance per run
// (schemes may carry per-run state such as flood counters).
type SchemeSpec struct {
	Name string
	New  func(seed int64) drtp.Scheme
	// ManagerOpts tweaks the admission policy for this scheme (the
	// no-backup baseline runs with drtp.WithOptionalBackup).
	ManagerOpts []drtp.ManagerOption
}

// PaperSchemes returns the three schemes the paper evaluates, in the order
// its figures list them: D-LSR, P-LSR, BF.
func PaperSchemes() []SchemeSpec {
	return []SchemeSpec{
		{Name: "D-LSR", New: func(int64) drtp.Scheme { return routing.NewDLSR() }},
		{Name: "P-LSR", New: func(int64) drtp.Scheme { return routing.NewPLSR() }},
		{Name: "BF", New: func(int64) drtp.Scheme { return flood.NewDefault() }},
	}
}

// NoBackupSpec returns the baseline scheme for capacity overhead.
func NoBackupSpec() SchemeSpec {
	return SchemeSpec{
		Name:        "NoBackup",
		New:         func(int64) drtp.Scheme { return routing.NewNoBackup() },
		ManagerOpts: []drtp.ManagerOption{drtp.WithOptionalBackup()},
	}
}

// cellSeed derives the deterministic seed of one experiment cell from a
// stable label: a pure function of (Seed, label) via rng.Split, so any
// assignment of cells to workers draws the identical stream — unlike
// sequential draws from a shared generator, which would depend on
// completion order.
func (p Params) cellSeed(label string) int64 {
	return rng.New(p.Seed).Split(label).Int63()
}

// generateScenario builds the traffic trace for one (pattern, lambda)
// cell, seeded from the cell's stable label.
func (p Params) generateScenario(pattern scenario.Pattern, lambda float64) (*scenario.Scenario, error) {
	return scenario.Generate(scenario.Config{
		Nodes:    p.Nodes,
		Lambda:   lambda,
		Duration: p.Duration,
		Pattern:  pattern,
		Seed:     p.cellSeed(fmt.Sprintf("scenario/%s/%.3f", pattern, lambda)),
	})
}

// capacityOverhead is the paper's capacity overhead of a run that accepted
// accepted connections where the no-backup baseline accepted baseline:
// the fractional decrease, floored at zero.
func capacityOverhead(baseline, accepted int64) float64 {
	if baseline == 0 || accepted >= baseline {
		return 0
	}
	return float64(baseline-accepted) / float64(baseline)
}
