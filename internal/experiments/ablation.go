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
	return capacityOverhead(r.BaselineAccepted, r.Result.AcceptedInWindow)
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
	dlsr := func(int64) drtp.Scheme { return routing.NewDLSR() }
	reactive := NoBackupSpec()
	reactive.Name = "reactive"
	variants := []cell{
		{spec: SchemeSpec{Name: "D-LSR", New: dlsr}},
		{spec: SchemeSpec{Name: "dedicated", New: dlsr}, mode: lsdb.Dedicated},
		{spec: SchemeSpec{Name: "conflict-blind", New: func(int64) drtp.Scheme { return routing.NewMinHopDisjoint() }}},
		{spec: SchemeSpec{Name: "random", New: func(seed int64) drtp.Scheme { return routing.NewRandom(seed) }}},
		// Joint disjoint-pair routing (Bhandari) instead of the paper's
		// sequential primary-then-backup selection.
		{spec: SchemeSpec{Name: "joint", New: func(int64) drtp.Scheme { return routing.NewJoint() }}},
		// The reactive alternative of §1: nothing reserved, re-route on
		// failure from whatever capacity is left (evaluated optimistically
		// — no signalling latency or retry storms).
		{spec: reactive, cfg: sim.Config{Reactive: true}},
	}

	// Per lambda: the no-backup baseline, then every variant on the
	// identical scenario.
	var cells []cell
	for _, lambda := range p.Lambdas {
		sc, err := p.generateScenario(scenario.UT, lambda)
		if err != nil {
			return nil, err
		}
		cfg := sim.Config{Warmup: p.Warmup, EvalInterval: p.EvalInterval}
		cells = append(cells, cell{graph: g, scen: sc, spec: NoBackupSpec(), cfg: cfg})
		for _, v := range variants {
			v.graph, v.scen = g, sc
			v.seed = p.cellSeed(fmt.Sprintf("ablation/%s/%.3f", v.spec.Name, lambda))
			v.cfg.Warmup, v.cfg.EvalInterval = cfg.Warmup, cfg.EvalInterval
			cells = append(cells, v)
		}
	}
	runs, err := p.run(cells, nil)
	if err != nil {
		return nil, err
	}

	result := &Ablation{Params: p}
	for _, lambda := range p.Lambdas {
		base, group := runs[0].res, runs[1:1+len(variants)]
		runs = runs[1+len(variants):]
		for j, v := range variants {
			result.Rows = append(result.Rows, AblationRow{
				Variant:          v.spec.Name,
				Lambda:           lambda,
				Result:           group[j].res,
				BaselineAccepted: base.AcceptedInWindow,
			})
		}
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
