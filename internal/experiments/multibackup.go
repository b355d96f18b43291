package experiments

import (
	"fmt"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/metrics"
	"github.com/rtcl/drtp/internal/routing"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/sim"
)

// MultiBackupRow measures D-LSR with k backup channels at one lambda.
type MultiBackupRow struct {
	Backups int
	Lambda  float64
	Result  *sim.Result
	// BaselineAccepted is the no-backup accepted count on the identical
	// scenario.
	BaselineAccepted int64
}

// CapacityOverhead mirrors SweepRow.CapacityOverhead.
func (r MultiBackupRow) CapacityOverhead() float64 {
	return capacityOverhead(r.BaselineAccepted, r.Result.AcceptedInWindow)
}

// AvgBackupsPerConn returns the mean number of backup channels each
// accepted connection actually established.
func (r MultiBackupRow) AvgBackupsPerConn() float64 {
	if r.Result.Stats.Accepted == 0 {
		return 0
	}
	return float64(r.Result.Stats.BackupsEstablished) / float64(r.Result.Stats.Accepted)
}

// MultiBackup probes the paper's "one or more backup channels": D-LSR
// with k ∈ {1,2} backups per connection, measured against both the
// single-failure model (where extra backups only help under contention)
// and sampled simultaneous two-link failures (where they matter).
type MultiBackup struct {
	Params Params
	Rows   []MultiBackupRow
}

// RunMultiBackup evaluates k = 1 and 2 backups over the lambda sweep
// under the UT pattern, with two-link-failure sampling enabled.
func RunMultiBackup(p Params) (*MultiBackup, error) {
	p.setDefaults()
	g, err := p.Topology()
	if err != nil {
		return nil, err
	}
	ks := []int{1, 2}
	specs := []SchemeSpec{NoBackupSpec()}
	for _, k := range ks {
		specs = append(specs, SchemeSpec{Name: fmt.Sprintf("D-LSR k=%d", k),
			New: func(int64) drtp.Scheme { return routing.NewDLSR(routing.WithBackupCount(k)) }})
	}
	// Per lambda: the no-backup baseline, then each k on the identical
	// scenario.
	var cells []cell
	for _, lambda := range p.Lambdas {
		sc, err := p.generateScenario(scenario.UT, lambda)
		if err != nil {
			return nil, err
		}
		for _, spec := range specs {
			cells = append(cells, cell{graph: g, scen: sc, spec: spec, cfg: sim.Config{
				Warmup:       p.Warmup,
				EvalInterval: p.EvalInterval,
				PairSamples:  200,
				PairSeed:     p.Seed,
			}})
		}
	}
	runs, err := p.run(cells, nil)
	if err != nil {
		return nil, err
	}

	result := &MultiBackup{Params: p}
	for _, lambda := range p.Lambdas {
		base, group := runs[0].res, runs[1:len(specs)]
		runs = runs[len(specs):]
		for j, k := range ks {
			result.Rows = append(result.Rows, MultiBackupRow{
				Backups:          k,
				Lambda:           lambda,
				Result:           group[j].res,
				BaselineAccepted: base.AcceptedInWindow,
			})
		}
	}
	return result, nil
}

// Table renders single- and double-failure fault tolerance plus overhead
// per backup count and lambda.
func (m *MultiBackup) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Multiple backups: D-LSR with k backups (E=%.0f, UT)", m.Params.Degree),
		"k", "lambda", "P_act-bk(1 fail)", "P_act-bk(2 fails)", "overhead", "backups/conn")
	for _, r := range m.Rows {
		t.AddRow(r.Backups, r.Lambda, r.Result.FaultTolerance,
			r.Result.PairFaultTolerance, metrics.Percent(r.CapacityOverhead()),
			r.AvgBackupsPerConn())
	}
	return t
}
