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
	if r.BaselineAccepted == 0 {
		return 0
	}
	oh := float64(r.BaselineAccepted-r.Result.AcceptedInWindow) / float64(r.BaselineAccepted)
	if oh < 0 {
		return 0
	}
	return oh
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
	simCfg := sim.Config{
		Warmup:       p.Warmup,
		EvalInterval: p.EvalInterval,
		PairSamples:  200,
		PairSeed:     p.Seed,
		Chaos:        p.Chaos,
	}

	// One job per (lambda, baseline-or-k) run, sharded across the worker
	// pool and merged in job order (see engine.go).
	type mbJob struct {
		lambda float64
		k      int // 0 for the no-backup baseline
		base   int // job index of the lambda's baseline run
		scen   *scenario.Scenario
	}
	var jobs []mbJob
	for _, lambda := range p.Lambdas {
		sc, err := p.generateScenario(scenario.UT, lambda)
		if err != nil {
			return nil, err
		}
		baseIdx := len(jobs)
		jobs = append(jobs, mbJob{lambda: lambda, base: -1, scen: sc})
		for _, k := range []int{1, 2} {
			jobs = append(jobs, mbJob{lambda: lambda, k: k, base: baseIdx, scen: sc})
		}
	}

	results := make([]*sim.Result, len(jobs))
	stream := newTelemetryStream(p.Telemetry, len(jobs), p.workerCount())
	err = runParallel(p.workerCount(), len(jobs), func(i int) error {
		j := jobs[i]
		tracer, done := stream.cell(i)
		defer done()
		simCfg := simCfg
		simCfg.Telemetry = tracer
		net, err := drtp.NewNetwork(g, p.Capacity, p.UnitBW)
		if err != nil {
			return err
		}
		if j.k == 0 {
			baseCfg := simCfg
			baseCfg.ManagerOpts = []drtp.ManagerOption{drtp.WithOptionalBackup()}
			res, err := sim.Run(net, routing.NewNoBackup(), j.scen, baseCfg)
			if err != nil {
				return fmt.Errorf("experiments: multibackup baseline: %w", err)
			}
			results[i] = res
			return nil
		}
		res, err := sim.Run(net, routing.NewDLSR(routing.WithBackupCount(j.k)), j.scen, simCfg)
		if err != nil {
			return fmt.Errorf("experiments: multibackup k=%d: %w", j.k, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	result := &MultiBackup{Params: p}
	for i, j := range jobs {
		if j.k == 0 {
			continue
		}
		result.Rows = append(result.Rows, MultiBackupRow{
			Backups:          j.k,
			Lambda:           j.lambda,
			Result:           results[i],
			BaselineAccepted: results[j.base].AcceptedInWindow,
		})
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
