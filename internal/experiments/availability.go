package experiments

import (
	"fmt"
	"sort"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/metrics"
	"github.com/rtcl/drtp/internal/rng"
	"github.com/rtcl/drtp/internal/routing"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/sim"
)

// AvailabilityParams extends the evaluation parameters with a failure
// process for destructive runs.
type AvailabilityParams struct {
	Params
	// Lambda is the per-node request arrival rate for the run.
	Lambda float64
	// MeanTimeBetweenFailures is the mean of the exponential interarrival
	// time of edge failures, in minutes (network-wide).
	MeanTimeBetweenFailures float64
	// RepairTime is how long a failed edge stays down, in minutes.
	RepairTime float64
}

// AvailabilityRow is one scheme's destructive-run measurement.
type AvailabilityRow struct {
	Scheme string
	Result *sim.Result
}

// Availability measures service survival under a stream of real link
// failures with repair: every failure actually switches or drops the
// affected connections (DRTP steps 2-4), and switched connections get
// fresh backups where the scheme supports it. This extends the paper's
// single-failure analysis to its operational consequence.
type Availability struct {
	Params AvailabilityParams
	// Failures is the number of scheduled failure events.
	Failures int
	Rows     []AvailabilityRow
}

// DefaultAvailabilityParams returns a moderate-load setting with a
// failure every ~20 minutes, repaired after 15.
func DefaultAvailabilityParams(degree float64) AvailabilityParams {
	return AvailabilityParams{
		Params:                  DefaultParams(degree),
		Lambda:                  0.4,
		MeanTimeBetweenFailures: 20,
		RepairTime:              15,
	}
}

// RunAvailability runs the destructive-failure comparison across D-LSR
// with one and two backups, BF, and the no-backup baseline, replaying the
// identical traffic scenario and failure schedule for each.
func RunAvailability(p AvailabilityParams) (*Availability, error) {
	p.setDefaults()
	if p.MeanTimeBetweenFailures <= 0 || p.RepairTime < 0 {
		return nil, fmt.Errorf("experiments: invalid failure process %+v", p)
	}
	g, err := p.Topology()
	if err != nil {
		return nil, err
	}
	sc, err := p.generateScenario(scenario.UT, p.Lambda)
	if err != nil {
		return nil, err
	}
	schedule := failureSchedule(g, p, sc.EndTime())

	nobackup := NoBackupSpec().New
	specs := []SchemeSpec{
		{Name: "D-LSR k=1", New: func(int64) drtp.Scheme { return routing.NewDLSR() }},
		{Name: "D-LSR k=2", New: func(int64) drtp.Scheme { return routing.NewDLSR(routing.WithBackupCount(2)) }},
		PaperSchemes()[2],
		{Name: "Reactive", New: nobackup,
			ManagerOpts: []drtp.ManagerOption{drtp.WithOptionalBackup(), drtp.WithReactiveRecovery()}},
		{Name: "NoRecovery", New: nobackup, ManagerOpts: []drtp.ManagerOption{drtp.WithOptionalBackup()}},
	}
	// Every scheme replays the identical scenario and failure schedule.
	cells := make([]cell, len(specs))
	for i, spec := range specs {
		cells[i] = cell{graph: g, scen: sc, spec: spec,
			cfg: sim.Config{Warmup: p.Warmup, FailureSchedule: schedule}}
	}
	runs, err := p.run(cells, nil)
	if err != nil {
		return nil, err
	}
	out := &Availability{Params: p, Failures: len(schedule)}
	for i, spec := range specs {
		out.Rows = append(out.Rows, AvailabilityRow{Scheme: spec.Name, Result: runs[i].res})
	}
	return out, nil
}

// failureSchedule draws exponential failure interarrivals over uniform
// random edges, each repaired after the fixed repair time.
func failureSchedule(g *graph.Graph, p AvailabilityParams, end float64) []sim.FailureEvent {
	src := rng.New(p.Seed).Split("failures")
	var events []sim.FailureEvent
	for t := src.Exp(1 / p.MeanTimeBetweenFailures); t < end; t += src.Exp(1 / p.MeanTimeBetweenFailures) {
		events = append(events, sim.FailureEvent{
			Time:   t,
			Edge:   graph.EdgeID(src.Intn(g.NumEdges())),
			Repair: t + p.RepairTime,
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time < events[j].Time })
	return events
}

// Table renders per-scheme availability, switching and drop counts.
func (a *Availability) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Availability under repeated failures (E=%.0f, lambda=%.2f, %d failures, repair %.0f min)",
			a.Params.Degree, a.Params.Lambda, a.Failures, a.Params.RepairTime),
		"scheme", "availability", "accepted", "affected", "switched", "dropped", "backupsRestored")
	for _, r := range a.Rows {
		t.AddRow(r.Scheme, r.Result.Availability, r.Result.Stats.Accepted,
			r.Result.FailureAffected, r.Result.Switched, r.Result.Dropped, r.Result.Reestablished)
	}
	return t
}
