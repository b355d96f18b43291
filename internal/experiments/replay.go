package experiments

import (
	"fmt"

	"github.com/rtcl/drtp/internal/metrics"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/sim"
)

// RunReplay replays the scenario file at path across the paper's schemes
// and the no-backup baseline on a fresh Waxman topology sized to it — the
// paper's exact comparison workflow — and tabulates the runs. Params
// supplies everything but the node count; its Seed also seeds every
// scheme, and the warm-up is 40% of the scenario's duration.
func RunReplay(p Params, path string) (*metrics.Table, error) {
	sc, err := scenario.Load(path)
	if err != nil {
		return nil, err
	}
	p.Nodes = sc.Config.Nodes
	g, err := p.Topology()
	if err != nil {
		return nil, err
	}
	specs := append(PaperSchemes(), NoBackupSpec())
	cells := make([]cell, len(specs))
	for i, spec := range specs {
		cells[i] = cell{graph: g, scen: sc, spec: spec, seed: p.Seed,
			cfg: sim.Config{Warmup: sc.Config.Duration * 0.4, EvalInterval: p.EvalInterval}}
	}
	runs, err := p.run(cells, nil)
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable(
		fmt.Sprintf("Replay of %s (%d arrivals, %s)", path, sc.NumArrivals(), sc.Config.Pattern),
		"scheme", "P_act-bk", "accepted", "requests", "avgLoad", "spareLoad")
	for i, r := range runs {
		t.AddRow(specs[i].Name, r.res.FaultTolerance, r.res.AcceptedInWindow, r.res.RequestsInWindow,
			metrics.Percent(r.res.AvgLoad), metrics.Percent(r.res.AvgSpareLoad))
	}
	return t, nil
}
