package experiments

import (
	"fmt"
	"io"

	"github.com/rtcl/drtp/internal/metrics"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/sim"
)

// SweepRow is one measured cell: a (pattern, lambda, scheme) combination,
// aggregated over Params.Replications independent runs.
type SweepRow struct {
	Pattern scenario.Pattern
	Lambda  float64
	Scheme  string
	// Result is the full simulation result of the first replication.
	Result *sim.Result
	// BaselineAccepted is the NoBackup scheme's accepted count on the
	// first replication's scenario.
	BaselineAccepted int64
	// FTSample and OverheadSample aggregate fault tolerance and capacity
	// overhead across replications.
	FTSample       metrics.Sample
	OverheadSample metrics.Sample
}

// FaultTolerance returns the cell's mean P_act-bk across replications.
func (r *SweepRow) FaultTolerance() float64 { return r.FTSample.Mean() }

// CapacityOverhead returns the paper's capacity overhead (mean across
// replications): the fractional decrease in accepted DR-connections
// relative to the no-backup baseline on the identical scenario.
func (r *SweepRow) CapacityOverhead() float64 { return r.OverheadSample.Mean() }

// Sweep holds all cells of one evaluation sweep plus the baseline runs.
type Sweep struct {
	Params Params
	// Rows holds one entry per (pattern, lambda, scheme), schemes in the
	// order given to RunSweep.
	Rows []*SweepRow
	// Baselines holds the first-replication NoBackup run per
	// (pattern, lambda).
	Baselines map[string]*sim.Result
	// index maps a cell key to its position in Rows, so row lookup is
	// O(1) instead of a linear scan per cell access.
	index map[rowKey]int
}

// rowKey identifies one sweep cell.
type rowKey struct {
	pattern scenario.Pattern
	lambda  float64
	scheme  string
}

func baselineKey(p scenario.Pattern, lambda float64) string {
	return fmt.Sprintf("%s/%.3f", p, lambda)
}

// Baseline returns the NoBackup result for a (pattern, lambda) cell.
func (s *Sweep) Baseline(p scenario.Pattern, lambda float64) *sim.Result {
	return s.Baselines[baselineKey(p, lambda)]
}

// row finds or creates the cell for (pattern, lambda, scheme).
func (s *Sweep) row(pattern scenario.Pattern, lambda float64, scheme string) *SweepRow {
	if s.index == nil {
		s.index = make(map[rowKey]int)
	}
	k := rowKey{pattern: pattern, lambda: lambda, scheme: scheme}
	if i, ok := s.index[k]; ok {
		return s.Rows[i]
	}
	r := &SweepRow{Pattern: pattern, Lambda: lambda, Scheme: scheme}
	s.index[k] = len(s.Rows)
	s.Rows = append(s.Rows, r)
	return r
}

// RunSweep evaluates the given schemes over all (pattern, lambda) cells of
// the parameters, replaying the identical scenario file for every scheme
// of a cell (including the NoBackup baseline), exactly as the paper does.
// With Replications > 1 every cell is re-run on fresh topology/scenario
// seeds and the samples aggregated.
//
// Cells are sharded across Params.Workers goroutines; output is
// bit-identical at any worker count (see engine.go for the contract).
func RunSweep(p Params, schemes []SchemeSpec) (*Sweep, error) {
	p.setDefaults()
	// Per replication, pattern and lambda: the NoBackup baseline, then
	// each scheme, all replaying one scenario on one topology.
	specs := append([]SchemeSpec{NoBackupSpec()}, schemes...)
	var cells []cell
	for rep := 0; rep < p.Replications; rep++ {
		pr := p
		pr.Seed = p.Seed + int64(rep)
		g, err := pr.Topology()
		if err != nil {
			return nil, err
		}
		for _, pattern := range p.Patterns {
			for _, lambda := range p.Lambdas {
				sc, err := pr.generateScenario(pattern, lambda)
				if err != nil {
					return nil, err
				}
				for _, spec := range specs {
					cells = append(cells, cell{graph: g, scen: sc, spec: spec,
						seed: pr.cellSeed("scheme/" + spec.Name),
						cfg:  sim.Config{Warmup: p.Warmup, EvalInterval: p.EvalInterval}})
				}
			}
		}
	}
	runs, err := p.run(cells, nil)
	if err != nil {
		return nil, err
	}

	// Fold in cell (= serial visiting) order, the same loop nest again.
	sweep := &Sweep{Params: p, Baselines: make(map[string]*sim.Result)}
	for rep := 0; rep < p.Replications; rep++ {
		for _, pattern := range p.Patterns {
			for _, lambda := range p.Lambdas {
				base, group := runs[0].res, runs[1:len(specs)]
				runs = runs[len(specs):]
				if rep == 0 {
					sweep.Baselines[baselineKey(pattern, lambda)] = base
				}
				for j, spec := range schemes {
					res := group[j].res
					row := sweep.row(pattern, lambda, spec.Name)
					row.FTSample.Add(res.FaultTolerance)
					row.OverheadSample.Add(capacityOverhead(base.AcceptedInWindow, res.AcceptedInWindow))
					if rep == 0 {
						row.Result = res
						row.BaselineAccepted = base.AcceptedInWindow
					}
				}
			}
		}
	}
	return sweep, nil
}

// Fig4Table renders the sweep as the paper's Figure 4 (fault tolerance
// P_act-bk versus lambda, one series per scheme x pattern).
func (s *Sweep) Fig4Table() *metrics.Table {
	title := fmt.Sprintf("Figure 4: fault tolerance P_act-bk (E=%.0f)", s.Params.Degree)
	if s.Params.Replications > 1 {
		title += fmt.Sprintf(", %d replications", s.Params.Replications)
	}
	t := metrics.NewTable(title, "pattern", "scheme", "lambda", "P_act-bk", "affected", "recovered", "noBackup", "backupHit", "contention")
	for _, r := range s.Rows {
		t.AddRow(r.Pattern.String(), r.Scheme, r.Lambda, r.FTSample.String(),
			r.Result.Affected, r.Result.Recovered, r.Result.NoBackup,
			r.Result.BackupHit, r.Result.Contention)
	}
	return t
}

// Fig5Table renders the sweep as the paper's Figure 5 (capacity overhead
// percentage versus lambda).
func (s *Sweep) Fig5Table() *metrics.Table {
	title := fmt.Sprintf("Figure 5: capacity overhead (E=%.0f)", s.Params.Degree)
	if s.Params.Replications > 1 {
		title += fmt.Sprintf(", %d replications", s.Params.Replications)
	}
	t := metrics.NewTable(title, "pattern", "scheme", "lambda", "overhead", "accepted", "noBackupAccepted", "avgLoad", "spareLoad")
	for _, r := range s.Rows {
		t.AddRow(r.Pattern.String(), r.Scheme, r.Lambda, metrics.Percent(r.CapacityOverhead()),
			r.Result.AcceptedInWindow, r.BaselineAccepted,
			metrics.Percent(r.Result.AvgLoad), metrics.Percent(r.Result.AvgSpareLoad))
	}
	return t
}

// AcceptanceTable renders the probability of successfully establishing a
// DR-connection (the other quantity §6 reports measuring) per cell, next
// to the no-backup baseline's acceptance on the same scenario.
func (s *Sweep) AcceptanceTable() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Connection acceptance probability (E=%.0f)", s.Params.Degree),
		"pattern", "scheme", "lambda", "acceptance", "baselineAcceptance", "rejectedNoRoute", "rejectedNoBackup")
	for _, r := range s.Rows {
		base := s.Baseline(r.Pattern, r.Lambda)
		baseAcc := 0.0
		if base != nil {
			baseAcc = base.AcceptRatioInWindow()
		}
		t.AddRow(r.Pattern.String(), r.Scheme, r.Lambda,
			metrics.Percent(r.Result.AcceptRatioInWindow()), metrics.Percent(baseAcc),
			r.Result.Stats.Rejected, r.Result.Stats.RejectedNoBackup)
	}
	return t
}

// Fig4Chart renders the fault-tolerance curves of one traffic pattern as
// an ASCII chart (the terminal rendition of Figure 4).
func (s *Sweep) Fig4Chart(pattern scenario.Pattern) *metrics.Chart {
	c := metrics.NewChart(
		fmt.Sprintf("Figure 4 (%s, E=%.0f): P_act-bk vs lambda", pattern, s.Params.Degree),
		"lambda", "P_act-bk")
	s.addSeries(c, pattern, func(r *SweepRow) float64 { return r.FaultTolerance() })
	return c
}

// Fig5Chart renders the capacity-overhead curves of one traffic pattern
// as an ASCII chart (the terminal rendition of Figure 5).
func (s *Sweep) Fig5Chart(pattern scenario.Pattern) *metrics.Chart {
	c := metrics.NewChart(
		fmt.Sprintf("Figure 5 (%s, E=%.0f): capacity overhead %% vs lambda", pattern, s.Params.Degree),
		"lambda", "overhead %")
	s.addSeries(c, pattern, func(r *SweepRow) float64 { return 100 * r.CapacityOverhead() })
	return c
}

// addSeries groups the sweep rows of one pattern into per-scheme series.
func (s *Sweep) addSeries(c *metrics.Chart, pattern scenario.Pattern, y func(*SweepRow) float64) {
	order := make([]string, 0, 4)
	points := make(map[string][]metrics.Point)
	for _, r := range s.Rows {
		if r.Pattern != pattern {
			continue
		}
		if _, seen := points[r.Scheme]; !seen {
			order = append(order, r.Scheme)
		}
		points[r.Scheme] = append(points[r.Scheme], metrics.Point{X: r.Lambda, Y: y(r)})
	}
	for _, name := range order {
		c.AddSeries(name, points[name])
	}
}

// Render writes both figure tables.
func (s *Sweep) Render(w io.Writer) error {
	if err := s.Fig4Table().Render(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return s.Fig5Table().Render(w)
}
