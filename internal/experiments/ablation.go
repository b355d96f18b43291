package experiments

import (
	"fmt"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/metrics"
	"github.com/rtcl/drtp/internal/routing"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/sim"
)

// AblationRow measures one design-choice variant at one lambda.
type AblationRow struct {
	Variant string
	Lambda  float64
	Result  *sim.Result
	// BaselineAccepted is the no-backup accepted count on the identical
	// scenario.
	BaselineAccepted int64
}

// CapacityOverhead mirrors SweepRow.CapacityOverhead.
func (r AblationRow) CapacityOverhead() float64 {
	if r.BaselineAccepted == 0 {
		return 0
	}
	oh := float64(r.BaselineAccepted-r.Result.AcceptedInWindow) / float64(r.BaselineAccepted)
	if oh < 0 {
		return 0
	}
	return oh
}

// Ablation compares the design choices the paper's conclusions single out:
//
//   - "multiplexed backup channels improve the fault-tolerance at the
//     expense of slightly decreasing the network utilization" — variant
//     `dedicated` reserves full per-backup spares and shows the ≈50%
//     capacity cost the paper says makes it impractical;
//   - "the lower the network connectivity, the more sophisticated routing
//     algorithm is necessary" — variant `conflict-blind` routes backups by
//     shortest disjoint path, ignoring APLV/CV conflict information;
//   - `random` adds random backup selection, which the paper predicts is
//     tolerable only in highly-connected networks.
type Ablation struct {
	Params Params
	Rows   []AblationRow
}

// RunAblation evaluates the variants over the parameter sweep under the
// UT pattern.
func RunAblation(p Params) (*Ablation, error) {
	p.setDefaults()
	g, err := p.Topology()
	if err != nil {
		return nil, err
	}
	type variant struct {
		name     string
		mode     lsdb.Mode
		scheme   func(seed int64) drtp.Scheme
		reactive bool
	}
	variants := []variant{
		{name: "D-LSR", mode: lsdb.Multiplexed, scheme: func(int64) drtp.Scheme { return routing.NewDLSR() }},
		{name: "dedicated", mode: lsdb.Dedicated, scheme: func(int64) drtp.Scheme { return routing.NewDLSR() }},
		{name: "conflict-blind", mode: lsdb.Multiplexed, scheme: func(int64) drtp.Scheme { return routing.NewMinHopDisjoint() }},
		{name: "random", mode: lsdb.Multiplexed, scheme: func(seed int64) drtp.Scheme { return routing.NewRandom(seed) }},
		// Joint disjoint-pair routing (Bhandari) instead of the paper's
		// sequential primary-then-backup selection.
		{name: "joint", mode: lsdb.Multiplexed, scheme: func(int64) drtp.Scheme { return routing.NewJoint() }},
		// The reactive alternative of §1: nothing reserved, re-route on
		// failure from whatever capacity is left (evaluated optimistically
		// — no signalling latency or retry storms).
		{name: "reactive", mode: lsdb.Multiplexed, scheme: func(int64) drtp.Scheme { return routing.NewNoBackup() }, reactive: true},
	}

	// One job per (lambda, baseline-or-variant) run, enumerated in the
	// serial visiting order and sharded across the worker pool; rows are
	// assembled in job order afterwards (see engine.go).
	type abJob struct {
		lambda  float64
		variant *variant // nil for the no-backup baseline
		base    int      // job index of the lambda's baseline run
		scen    *scenario.Scenario
	}
	var jobs []abJob
	for _, lambda := range p.Lambdas {
		sc, err := p.generateScenario(scenario.UT, lambda)
		if err != nil {
			return nil, err
		}
		baseIdx := len(jobs)
		jobs = append(jobs, abJob{lambda: lambda, base: -1, scen: sc})
		for i := range variants {
			jobs = append(jobs, abJob{lambda: lambda, variant: &variants[i], base: baseIdx, scen: sc})
		}
	}

	simCfg := sim.Config{Warmup: p.Warmup, EvalInterval: p.EvalInterval, Chaos: p.Chaos}
	results := make([]*sim.Result, len(jobs))
	stream := newTelemetryStream(p.Telemetry, len(jobs), p.workerCount())
	err = runParallel(p.workerCount(), len(jobs), func(i int) error {
		j := jobs[i]
		tracer, done := stream.cell(i)
		defer done()
		simCfg := simCfg
		simCfg.Telemetry = tracer
		if j.variant == nil {
			baseNet, err := drtp.NewNetworkWithMode(g, p.Capacity, p.UnitBW, lsdb.Multiplexed)
			if err != nil {
				return err
			}
			baseCfg := simCfg
			baseCfg.ManagerOpts = []drtp.ManagerOption{drtp.WithOptionalBackup()}
			res, err := sim.Run(baseNet, routing.NewNoBackup(), j.scen, baseCfg)
			if err != nil {
				return fmt.Errorf("experiments: ablation baseline: %w", err)
			}
			results[i] = res
			return nil
		}
		v := j.variant
		net, err := drtp.NewNetworkWithMode(g, p.Capacity, p.UnitBW, v.mode)
		if err != nil {
			return err
		}
		vCfg := simCfg
		if v.reactive {
			vCfg.Reactive = true
			vCfg.ManagerOpts = []drtp.ManagerOption{drtp.WithOptionalBackup()}
		}
		seed := p.cellSeed(fmt.Sprintf("ablation/%s/%.3f", v.name, j.lambda))
		res, err := sim.Run(net, v.scheme(seed), j.scen, vCfg)
		if err != nil {
			return fmt.Errorf("experiments: ablation %s: %w", v.name, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	result := &Ablation{Params: p}
	for i, j := range jobs {
		if j.variant == nil {
			continue
		}
		result.Rows = append(result.Rows, AblationRow{
			Variant:          j.variant.name,
			Lambda:           j.lambda,
			Result:           results[i],
			BaselineAccepted: results[j.base].AcceptedInWindow,
		})
	}
	return result, nil
}

// Table renders fault tolerance and overhead per variant and lambda.
func (a *Ablation) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Ablation: design choices (E=%.0f, UT)", a.Params.Degree),
		"variant", "lambda", "P_act-bk", "overhead", "accepted", "contention")
	for _, r := range a.Rows {
		t.AddRow(r.Variant, r.Lambda, r.Result.FaultTolerance,
			metrics.Percent(r.CapacityOverhead()), r.Result.AcceptedInWindow, r.Result.Contention)
	}
	return t
}
