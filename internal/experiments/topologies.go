package experiments

import (
	"fmt"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/metrics"
	"github.com/rtcl/drtp/internal/routing"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/sim"
	"github.com/rtcl/drtp/internal/topology"
)

// TopologyRow measures one (topology, scheme) cell.
type TopologyRow struct {
	Topology string
	Scheme   string
	// AvgDegree and MeanHops characterize the topology.
	AvgDegree float64
	MeanHops  float64
	Result    *sim.Result
}

// TopologySensitivity probes how the routing schemes depend on topology
// shape: the paper's Waxman graphs at both connectivities, a scale-free
// (Barabási–Albert) graph with hubs, and a regular grid. The paper's
// conclusion "the lower the network connectivity, the more sophisticated
// routing algorithm is necessary" predicts the scheme gap tracks path
// diversity, not just average degree.
type TopologySensitivity struct {
	Params Params
	Lambda float64
	Rows   []TopologyRow
}

// RunTopologySensitivity evaluates D-LSR, BF and the conflict-blind
// baseline at one lambda across four topology families of comparable
// size, replaying the identical scenario per topology.
func RunTopologySensitivity(p Params, lambda float64) (*TopologySensitivity, error) {
	p.setDefaults()
	type topo struct {
		name  string
		build func() (*graph.Graph, error)
	}
	topos := []topo{
		{name: "waxman-e3", build: func() (*graph.Graph, error) {
			return topology.Waxman(topology.WaxmanConfig{Nodes: p.Nodes, AvgDegree: 3, MinDegree: 2, Seed: p.Seed})
		}},
		{name: "waxman-e4", build: func() (*graph.Graph, error) {
			return topology.Waxman(topology.WaxmanConfig{Nodes: p.Nodes, AvgDegree: 4, MinDegree: 2, Seed: p.Seed})
		}},
		{name: "scale-free", build: func() (*graph.Graph, error) {
			return topology.BarabasiAlbert(topology.BarabasiAlbertConfig{Nodes: p.Nodes, M: 2, Seed: p.Seed})
		}},
		{name: "grid", build: func() (*graph.Graph, error) {
			side := 1
			for side*side < p.Nodes {
				side++
			}
			return topology.Grid(side, side)
		}},
	}
	ps := PaperSchemes()
	schemes := []SchemeSpec{ps[0], ps[2],
		{Name: "MinHop", New: func(int64) drtp.Scheme { return routing.NewMinHopDisjoint() }}}

	// Per topology: every scheme replays one scenario sized to it.
	var cells []cell
	meanHops := make([]float64, len(topos))
	for i, tp := range topos {
		g, err := tp.build()
		if err != nil {
			return nil, fmt.Errorf("experiments: topology %s: %w", tp.name, err)
		}
		sc, err := scenario.Generate(scenario.Config{
			Nodes:    g.NumNodes(),
			Lambda:   lambda,
			Duration: p.Duration,
			Pattern:  scenario.UT,
			Seed:     p.Seed,
		})
		if err != nil {
			return nil, err
		}
		meanHops[i] = graph.NewDistanceTable(g).MeanHops()
		for _, spec := range schemes {
			cells = append(cells, cell{graph: g, scen: sc, spec: spec,
				cfg: sim.Config{Warmup: p.Warmup, EvalInterval: p.EvalInterval}})
		}
	}
	runs, err := p.run(cells, nil)
	if err != nil {
		return nil, err
	}
	out := &TopologySensitivity{Params: p, Lambda: lambda}
	for i, c := range cells {
		out.Rows = append(out.Rows, TopologyRow{
			Topology:  topos[i/len(schemes)].name,
			Scheme:    c.spec.Name,
			AvgDegree: c.graph.AvgDegree(),
			MeanHops:  meanHops[i/len(schemes)],
			Result:    runs[i].res,
		})
	}
	return out, nil
}

// Table renders fault tolerance per topology and scheme.
func (t *TopologySensitivity) Table() *metrics.Table {
	tbl := metrics.NewTable(
		fmt.Sprintf("Topology sensitivity (%d nodes, UT, lambda=%.2f)", t.Params.Nodes, t.Lambda),
		"topology", "scheme", "avgDegree", "meanHops", "P_act-bk", "accepted", "contention", "backupHit")
	for _, r := range t.Rows {
		tbl.AddRow(r.Topology, r.Scheme,
			fmt.Sprintf("%.2f", r.AvgDegree), fmt.Sprintf("%.2f", r.MeanHops),
			r.Result.FaultTolerance, r.Result.AcceptedInWindow,
			r.Result.Contention, r.Result.BackupHit)
	}
	return tbl
}
