package experiments

import (
	"fmt"
	"sort"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/flood"
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

	specs := []struct {
		name string
		new  func() drtp.Scheme
		opts []drtp.ManagerOption
	}{
		{name: "D-LSR k=1", new: func() drtp.Scheme { return routing.NewDLSR() }},
		{name: "D-LSR k=2", new: func() drtp.Scheme { return routing.NewDLSR(routing.WithBackupCount(2)) }},
		{name: "BF", new: func() drtp.Scheme { return flood.NewDefault() }},
		{name: "Reactive", new: func() drtp.Scheme { return routing.NewNoBackup() },
			opts: []drtp.ManagerOption{drtp.WithOptionalBackup(), drtp.WithReactiveRecovery()}},
		{name: "NoRecovery", new: func() drtp.Scheme { return routing.NewNoBackup() },
			opts: []drtp.ManagerOption{drtp.WithOptionalBackup()}},
	}

	// Scheme runs replay the identical scenario and failure schedule on
	// separate networks, so they shard across the worker pool; telemetry
	// from concurrent runs is buffered per run and streamed out in spec
	// order as the completed prefix advances (see engine.go).
	out := &Availability{Params: p, Failures: len(schedule)}
	results := make([]*sim.Result, len(specs))
	stream := newTelemetryStream(p.Telemetry, len(specs), p.workerCount())
	err = runParallel(p.workerCount(), len(specs), func(i int) error {
		spec := specs[i]
		net, err := drtp.NewNetworkWithMode(g, p.Capacity, p.UnitBW, p.Mode)
		if err != nil {
			return err
		}
		tracer, done := stream.cell(i)
		defer done()
		res, err := sim.Run(net, spec.new(), sc, sim.Config{
			Warmup:          p.Warmup,
			FailureSchedule: schedule,
			ManagerOpts:     spec.opts,
			Telemetry:       tracer,
			Chaos:           p.Chaos,
		})
		if err != nil {
			return fmt.Errorf("experiments: availability %s: %w", spec.name, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, spec := range specs {
		out.Rows = append(out.Rows, AvailabilityRow{Scheme: spec.name, Result: results[i]})
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
