package experiments

import (
	"fmt"

	"github.com/rtcl/drtp/internal/metrics"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/sim"
)

// QoSRow measures one (scheme, slack) cell of the delay-bound study.
type QoSRow struct {
	Scheme string
	// Slack is the per-request delay budget above the minimum hop count;
	// -1 denotes unbounded.
	Slack  int
	Result *sim.Result
}

// QoS studies how tight end-to-end delay bounds constrain dependability:
// every request carries MaxHops = shortest-distance + slack. The paper's
// §2 observes that a connection whose "QoS requirement (e.g., end-to-end
// delay) is too tight to use the longer path ... cannot recover"; this
// experiment quantifies that trade for D-LSR (which loves long detours)
// and BF (whose routes are bounded anyway).
type QoS struct {
	Params Params
	Lambda float64
	Rows   []QoSRow
}

// RunQoS evaluates slack values 0..3 plus unbounded at one lambda under
// the UT pattern.
func RunQoS(p Params, lambda float64) (*QoS, error) {
	p.setDefaults()
	g, err := p.Topology()
	if err != nil {
		return nil, err
	}
	sc, err := p.generateScenario(scenario.UT, lambda)
	if err != nil {
		return nil, err
	}
	ps := PaperSchemes()
	schemes := []SchemeSpec{ps[0], ps[2]}
	slacks := []int{0, 1, 2, 3, -1}
	var cells []cell
	for _, slack := range slacks {
		for _, spec := range schemes {
			c := cell{graph: g, scen: sc, spec: spec, cfg: sim.Config{Warmup: p.Warmup, EvalInterval: p.EvalInterval}}
			if slack >= 0 {
				c.cfg.QoSBound = true
				c.cfg.QoSSlack = slack
			}
			cells = append(cells, c)
		}
	}
	runs, err := p.run(cells, nil)
	if err != nil {
		return nil, err
	}
	out := &QoS{Params: p, Lambda: lambda}
	for i, c := range cells {
		out.Rows = append(out.Rows, QoSRow{Scheme: c.spec.Name, Slack: slacks[i/len(schemes)], Result: runs[i].res})
	}
	return out, nil
}

// Table renders fault tolerance, acceptance and backup lengths per slack.
func (q *QoS) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("QoS delay bounds: MaxHops = dist + slack (E=%.0f, UT, lambda=%.2f)",
			q.Params.Degree, q.Lambda),
		"scheme", "slack", "P_act-bk", "accepted", "requests", "backupHops", "primaryHops")
	for _, r := range q.Rows {
		slack := fmt.Sprintf("%d", r.Slack)
		if r.Slack < 0 {
			slack = "unbounded"
		}
		t.AddRow(r.Scheme, slack, r.Result.FaultTolerance,
			r.Result.AcceptedInWindow, r.Result.RequestsInWindow,
			r.Result.AvgBackupHops, r.Result.AvgPrimaryHops)
	}
	return t
}
