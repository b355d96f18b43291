package lsr_test

import (
	"reflect"
	"slices"
	"testing"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsr"
	"github.com/rtcl/drtp/internal/rng"
	"github.com/rtcl/drtp/internal/topology"
)

const (
	capacity = 10
	unit     = 1
)

// build makes a graph from an edge list and a selector over it with every
// link up, idle and conflict-free.
func build(t *testing.T, nodes int, edges [][2]int) *lsr.Selector {
	t.Helper()
	g := graph.New(nodes)
	for _, e := range edges {
		if _, err := g.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1])); err != nil {
			t.Fatal(err)
		}
	}
	n := g.NumLinks()
	s := &lsr.Selector{
		G: g, Unit: unit,
		Free: make([]int, n), AvailBackup: make([]int, n),
		Down: make([]bool, n), Metric: make([]float64, n),
	}
	for l := 0; l < n; l++ {
		s.Free[l], s.AvailBackup[l] = capacity, capacity
	}
	return s
}

// bridge is 0 -1- 2 with a detour 1-3-2: every route 0 -> 2 crosses the
// bridge 0-1.
func bridge(t *testing.T) *lsr.Selector {
	return build(t, 4, [][2]int{{0, 1}, {1, 2}, {1, 3}, {3, 2}})
}

// theta has three disjoint routes 0 -> 1 of 2, 3 and 4 hops.
func theta(t *testing.T) *lsr.Selector {
	return build(t, 8, [][2]int{{0, 2}, {2, 1}, {0, 3}, {3, 4}, {4, 1}, {0, 5}, {5, 6}, {6, 7}, {7, 1}})
}

var (
	thetaShort = []graph.NodeID{0, 2, 1}
	thetaMid   = []graph.NodeID{0, 3, 4, 1}
	thetaLong  = []graph.NodeID{0, 5, 6, 7, 1}
)

func path(t *testing.T, s *lsr.Selector, nodes ...graph.NodeID) graph.Path {
	t.Helper()
	p, err := graph.PathFromNodes(s.G, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func link(t *testing.T, s *lsr.Selector, u, v graph.NodeID) graph.LinkID {
	t.Helper()
	l, ok := s.G.LinkBetween(u, v)
	if !ok {
		t.Fatalf("no link %d->%d", u, v)
	}
	return l
}

func TestPrimary(t *testing.T) {
	tests := []struct {
		name    string
		setup   func(t *testing.T, s *lsr.Selector)
		maxHops int
		want    []graph.NodeID // nil: no route
	}{
		{name: "minimum hop", want: thetaShort},
		{name: "link without room for a primary is skipped", want: thetaMid,
			setup: func(t *testing.T, s *lsr.Selector) { s.Free[link(t, s, 2, 1)] = unit - 1 }},
		{name: "down link is skipped", want: thetaMid,
			setup: func(t *testing.T, s *lsr.Selector) { s.Down[link(t, s, 0, 2)] = true }},
		{name: "backup bandwidth and metric do not matter", want: thetaShort,
			setup: func(t *testing.T, s *lsr.Selector) {
				s.AvailBackup[link(t, s, 0, 2)] = 0
				s.Metric[link(t, s, 0, 2)] = 9
			}},
		{name: "hop bound met", maxHops: 2, want: thetaShort},
		{name: "hop bound is a feasibility check", maxHops: 2, want: nil,
			setup: func(t *testing.T, s *lsr.Selector) { s.Down[link(t, s, 0, 2)] = true }},
		{name: "every route cut", want: nil,
			setup: func(t *testing.T, s *lsr.Selector) {
				for _, l := range s.G.In(1) {
					s.Down[l] = true
				}
			}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := theta(t)
			if tc.setup != nil {
				tc.setup(t, s)
			}
			got := s.Primary(0, 1, tc.maxHops)
			if !reflect.DeepEqual(got.Nodes(s.G), tc.want) {
				t.Fatalf("Primary = %v, want %v", got.Nodes(s.G), tc.want)
			}
		})
	}
}

// TestPrimaryMatchesUnitCostDijkstra holds the breadth-first primary to
// the definition it replaced — Dijkstra at unit cost over the links that
// are up and have room, refused when longer than the hop bound — link for
// link, on a Waxman graph under random failures and random saturation.
func TestPrimaryMatchesUnitCostDijkstra(t *testing.T) {
	g, err := topology.Waxman(topology.WaxmanConfig{Nodes: 40, AvgDegree: 3.5, MinDegree: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumLinks()
	s := &lsr.Selector{G: g, Unit: unit, Free: make([]int, n), Down: make([]bool, n)}
	var ref graph.Scratch
	r := rng.New(7)
	refused, bounded := 0, 0
	for round := 0; round < 6; round++ {
		for l := 0; l < n; l++ {
			s.Down[l] = r.Intn(10) == 0
			s.Free[l] = r.Intn(2 + round) // more rounds, fewer saturated links
		}
		cost := func(l graph.LinkID) float64 {
			if s.Down[l] || s.Free[l] < unit {
				return graph.Unreachable
			}
			return 1
		}
		for src := 0; src < g.NumNodes(); src++ {
			for dst := 0; dst < g.NumNodes(); dst++ {
				maxHops := r.Intn(6) // 0: unbounded
				want, total := ref.ShortestPath(g, graph.NodeID(src), graph.NodeID(dst), cost)
				if total == graph.Unreachable {
					want = graph.Path{}
					refused++
				} else if maxHops > 0 && want.Hops() > maxHops {
					want = graph.Path{}
					bounded++
				}
				got := s.Primary(graph.NodeID(src), graph.NodeID(dst), maxHops)
				if !slices.Equal(got.Links(), want.Links()) {
					t.Fatalf("round %d, %d->%d within %d hops: Primary %v, Dijkstra %v", round, src, dst, maxHops, got.Links(), want.Links())
				}
			}
		}
	}
	if refused == 0 || bounded == 0 {
		t.Fatalf("corpus too tame: %d pairs unreachable, %d over their hop bound", refused, bounded)
	}
}

// TestNextBackup pins the avoid set and the sole-protection rule: each
// case asks for backups one after another, feeding every answer back as
// existing, and lists the routes it must get; the request after the last
// listed route must be refused.
func TestNextBackup(t *testing.T) {
	tests := []struct {
		name     string
		topo     func(*testing.T) *lsr.Selector
		setup    func(t *testing.T, s *lsr.Selector)
		primary  []graph.NodeID
		existing [][]graph.NodeID
		maxHops  int
		want     [][]graph.NodeID
	}{
		{name: "bridge: the sole backup may overlap the primary, a second may not",
			topo: bridge, primary: []graph.NodeID{0, 1, 2},
			want: [][]graph.NodeID{{0, 1, 3, 2}}},
		{name: "theta: two disjoint backups, shortest first, then nothing",
			topo: theta, primary: thetaShort,
			want: [][]graph.NodeID{thetaMid, thetaLong}},
		{name: "theta: top-up avoids the existing backup",
			topo: theta, primary: thetaShort, existing: [][]graph.NodeID{thetaLong},
			want: [][]graph.NodeID{thetaMid}},
		{name: "theta: nothing disjoint left",
			topo: theta, primary: thetaShort, existing: [][]graph.NodeID{thetaMid, thetaLong},
			want: nil},
		{name: "down links are never used",
			topo: theta, primary: thetaShort,
			setup: func(t *testing.T, s *lsr.Selector) { s.Down[link(t, s, 3, 4)] = true },
			want:  [][]graph.NodeID{thetaLong}},
		{name: "down links are not a last resort either",
			topo: bridge, primary: []graph.NodeID{0, 1, 2},
			setup: func(t *testing.T, s *lsr.Selector) { s.Down[link(t, s, 0, 1)] = true },
			want:  nil},
		{name: "a link short of backup bandwidth is a last resort",
			topo: theta, primary: thetaShort,
			setup: func(t *testing.T, s *lsr.Selector) { s.AvailBackup[link(t, s, 3, 4)] = unit - 1 },
			want:  [][]graph.NodeID{thetaLong, thetaMid}},
		{name: "primary bandwidth does not matter",
			topo: theta, primary: thetaShort,
			setup: func(t *testing.T, s *lsr.Selector) { s.Free[link(t, s, 3, 4)] = 0 },
			want:  [][]graph.NodeID{thetaMid, thetaLong}},
		{name: "fewer conflicts beat fewer hops",
			topo: theta, primary: thetaShort,
			setup: func(t *testing.T, s *lsr.Selector) { s.Metric[link(t, s, 3, 4)] = 1 },
			want:  [][]graph.NodeID{thetaLong, thetaMid}},
		{name: "nil metric is conflict-blind",
			topo: theta, primary: thetaShort,
			setup: func(t *testing.T, s *lsr.Selector) { s.Metric = nil },
			want:  [][]graph.NodeID{thetaMid, thetaLong}},
		{name: "hop bound overrides the metric and ends the top-up",
			topo: theta, primary: thetaShort, maxHops: 3,
			setup: func(t *testing.T, s *lsr.Selector) { s.Metric[link(t, s, 3, 4)] = 1 },
			want:  [][]graph.NodeID{thetaMid}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.topo(t)
			if tc.setup != nil {
				tc.setup(t, s)
			}
			primary := path(t, s, tc.primary...)
			var have []graph.Path
			for _, e := range tc.existing {
				have = append(have, path(t, s, e...))
			}
			var got [][]graph.NodeID
			for {
				b := s.NextBackup(primary, have, tc.maxHops)
				if b.Empty() {
					break
				}
				if len(got) > len(tc.want) {
					t.Fatalf("NextBackup keeps producing routes: %v", got)
				}
				got = append(got, b.Nodes(s.G))
				have = append(have, b)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("backups = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestSelectorAllocs is the allocation budget of a selection: once the
// buffers are warm, only the returned Path is allocated.
func TestSelectorAllocs(t *testing.T) {
	s := theta(t)
	primary := s.Primary(0, 1, 0)
	s.NextBackup(primary, nil, 0)
	s.NextBackup(primary, nil, 4) // warm the hop-bounded tables
	if avg := testing.AllocsPerRun(200, func() { s.Primary(0, 1, 0) }); avg > 1 {
		t.Errorf("Primary allocates %.1f objects, want <= 1 (the Path)", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { s.NextBackup(primary, nil, 0) }); avg > 1 {
		t.Errorf("NextBackup allocates %.1f objects, want <= 1 (the Path)", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { s.NextBackup(primary, nil, 4) }); avg > 1 {
		t.Errorf("hop-bounded NextBackup allocates %.1f objects, want <= 1 (the Path)", avg)
	}
}
