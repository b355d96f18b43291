package experiments

import (
	"fmt"

	"github.com/rtcl/drtp/internal/faultinject"
	"github.com/rtcl/drtp/internal/metrics"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/sim"
)

// ChaosParams sets up a dependability run: Params.Chaos is the
// fault-injection schedule every scheme's run replays, and must be set.
type ChaosParams struct {
	Params
	// Lambda is the per-node request arrival rate for the run.
	Lambda float64
}

// ChaosRow is one scheme's measurement under the chaos schedule.
type ChaosRow struct {
	Scheme string
	Result *sim.Result
}

// Chaos compares the paper's schemes under an identical fault-injection
// schedule: lossy signalling (with retries), node crashes, partitions and
// edge faults. Every affected connection must reach a terminal state —
// switched, re-routed or dropped — so the run terminates; the per-scheme
// split is the dependability comparison.
type Chaos struct {
	Params ChaosParams
	Rows   []ChaosRow
}

// DefaultChaosSchedule returns a moderate chaos script: 10% signalling
// loss for the whole run, one node crash with restart, and one partition
// that heals. Times are scenario minutes.
func DefaultChaosSchedule(seed int64) *faultinject.Schedule {
	return &faultinject.Schedule{
		Seed:       seed,
		TimeUnit:   "minutes",
		Signal:     &faultinject.SignalFaults{Drop: 0.1, Retries: 3},
		Crashes:    []faultinject.CrashEvent{{Node: 3, At: 200, Restart: 230}},
		Partitions: []faultinject.Partition{{Group: []int{0, 1, 2}, At: 260, Heal: 290}},
	}
}

// RunChaos runs the dependability comparison across the paper's three
// schemes, replaying the identical traffic scenario and chaos schedule
// for each.
func RunChaos(p ChaosParams) (*Chaos, error) {
	p.setDefaults()
	if p.Chaos == nil {
		return nil, fmt.Errorf("experiments: chaos run needs a schedule")
	}
	if err := p.Chaos.Validate(); err != nil {
		return nil, err
	}
	g, err := p.Topology()
	if err != nil {
		return nil, err
	}
	sc, err := p.generateScenario(scenario.UT, p.Lambda)
	if err != nil {
		return nil, err
	}

	specs := PaperSchemes()
	cells := make([]cell, len(specs))
	for i, spec := range specs {
		cells[i] = cell{graph: g, scen: sc, spec: spec, seed: p.cellSeed("scheme/" + spec.Name),
			cfg: sim.Config{Warmup: p.Warmup}}
	}
	runs, err := p.run(cells, nil)
	if err != nil {
		return nil, err
	}
	out := &Chaos{Params: p}
	for i, spec := range specs {
		out.Rows = append(out.Rows, ChaosRow{Scheme: spec.Name, Result: runs[i].res})
	}
	return out, nil
}

// Table renders per-scheme dependability under the chaos schedule.
func (c *Chaos) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Dependability under chaos (E=%.0f, lambda=%.2f, seed=%d)",
			c.Params.Degree, c.Params.Lambda, c.Params.Seed),
		"scheme", "availability", "accepted", "affected", "switched", "dropped",
		"sigRetries", "sigTimeouts")
	for _, r := range c.Rows {
		t.AddRow(r.Scheme, r.Result.Availability, r.Result.Stats.Accepted,
			r.Result.FailureAffected, r.Result.Switched, r.Result.Dropped,
			r.Result.Stats.SignalRetries, r.Result.Stats.SignalTimeouts)
	}
	return t
}
