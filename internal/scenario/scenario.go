// Package scenario generates and replays the traffic used in the paper's
// evaluation: DR-connection requests arriving as a Poisson process with
// per-node rate lambda, uniformly distributed lifetimes, and two
// destination patterns — UT (uniform) and NT (half of all connections
// target 10 pre-selected hot destinations).
//
// The paper records request/release events in scenario files (generated
// with Matlab) and replays the same file under every routing scheme so
// schemes are compared on identical inputs. This package reproduces that
// mechanism: Generate is deterministic in Config.Seed, and scenarios
// serialize to JSON-lines files.
package scenario

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/rtcl/drtp/internal/faultinject"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/rng"
)

// Pattern selects how destinations are drawn.
type Pattern int

const (
	// UT draws source and destination uniformly at random (paper's
	// "uniform traffic").
	UT Pattern = iota + 1
	// NT pre-selects HotDests nodes; a HotFraction share of connections
	// targets one of them (paper's non-uniform traffic: 10 nodes receive
	// 50% of DR-connections).
	NT
)

// String returns the paper's abbreviation for the pattern.
func (p Pattern) String() string {
	switch p {
	case UT:
		return "UT"
	case NT:
		return "NT"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// EventKind distinguishes request arrivals from connection releases.
type EventKind int

const (
	// Arrival is a DR-connection request.
	Arrival EventKind = iota + 1
	// Departure terminates a previously requested connection.
	Departure
)

// Event is one entry of a scenario file. Times are in minutes.
type Event struct {
	Time float64      `json:"t"`
	Kind EventKind    `json:"kind"`
	Conn lsdb.ConnID  `json:"conn"`
	Src  graph.NodeID `json:"src,omitempty"`
	Dst  graph.NodeID `json:"dst,omitempty"`
}

// Config parameterizes scenario generation.
type Config struct {
	// Nodes is the number of network nodes (paper: 60).
	Nodes int
	// Lambda is the per-node request arrival rate per minute; the
	// network-wide process is Poisson with rate Nodes*Lambda.
	Lambda float64
	// Duration is the arrival horizon in minutes. Departures may fall
	// after the horizon.
	Duration float64
	// LifetimeMin/LifetimeMax bound the uniform connection lifetime in
	// minutes (paper: 20 and 60).
	LifetimeMin float64
	LifetimeMax float64
	// Pattern selects UT or NT.
	Pattern Pattern
	// HotDests is the number of pre-selected hot destinations for NT
	// (paper: 10).
	HotDests int
	// HotFraction is the share of connections targeting a hot
	// destination under NT (paper: 0.5).
	HotFraction float64
	// Seed drives all randomness.
	Seed int64
}

func (c *Config) setDefaults() {
	if c.LifetimeMin == 0 && c.LifetimeMax == 0 {
		c.LifetimeMin, c.LifetimeMax = 20, 60
	}
	if c.Pattern == 0 {
		c.Pattern = UT
	}
	if c.HotDests == 0 {
		c.HotDests = 10
	}
	if c.HotFraction == 0 {
		c.HotFraction = 0.5
	}
}

func (c *Config) validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("scenario: need at least 2 nodes, got %d", c.Nodes)
	}
	for _, x := range []float64{float64(c.Nodes) * c.Lambda, c.Duration, c.LifetimeMin, c.LifetimeMax} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("scenario: arrival rate %d×%g, duration %g and lifetimes [%g,%g] must be finite",
				c.Nodes, c.Lambda, c.Duration, c.LifetimeMin, c.LifetimeMax)
		}
	}
	if c.Lambda <= 0 {
		return fmt.Errorf("scenario: lambda must be positive, got %g", c.Lambda)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("scenario: duration must be positive, got %g", c.Duration)
	}
	if c.LifetimeMin <= 0 || c.LifetimeMax < c.LifetimeMin {
		return fmt.Errorf("scenario: invalid lifetime range [%g,%g]", c.LifetimeMin, c.LifetimeMax)
	}
	if c.Pattern == NT && (c.HotDests < 0 || c.HotDests > c.Nodes) {
		return fmt.Errorf("scenario: %d hot destinations out of [1,%d]", c.HotDests, c.Nodes)
	}
	if c.HotFraction < 0 || c.HotFraction > 1 {
		return fmt.Errorf("scenario: hot fraction %g out of [0,1]", c.HotFraction)
	}
	return nil
}

// Scenario is a replayable event trace.
type Scenario struct {
	// Config records how the scenario was generated.
	Config Config `json:"config"`
	// HotDestinations lists the NT hot nodes (empty under UT).
	HotDestinations []graph.NodeID `json:"hotDestinations,omitempty"`
	// Chaos optionally bundles a fault-injection schedule with the
	// workload, so a destructive run replays both from one file. The
	// simulator applies it unless overridden by its own config.
	Chaos *faultinject.Schedule `json:"chaos,omitempty"`
	// Events is sorted by time; arrivals and departures interleave.
	Events []Event `json:"-"`
}

// NumArrivals returns the number of request events.
func (s *Scenario) NumArrivals() int {
	n := 0
	for _, e := range s.Events {
		if e.Kind == Arrival {
			n++
		}
	}
	return n
}

// EndTime returns the time of the last event, or 0 for an empty scenario.
func (s *Scenario) EndTime() float64 {
	if len(s.Events) == 0 {
		return 0
	}
	return s.Events[len(s.Events)-1].Time
}

// Generate creates a scenario deterministically from cfg.
func Generate(cfg Config) (*Scenario, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed)
	arrivalRNG := src.Split("arrivals")
	pairRNG := src.Split("pairs")
	lifeRNG := src.Split("lifetimes")
	hotRNG := src.Split("hotdests")

	var hot []graph.NodeID
	if cfg.Pattern == NT {
		perm := hotRNG.Perm(cfg.Nodes)
		hot = make([]graph.NodeID, cfg.HotDests)
		for i := range hot {
			hot[i] = graph.NodeID(perm[i])
		}
		slices.Sort(hot)
	}

	// Arrivals are drawn in time order; departures, which carry only a
	// time and a conn, are sorted apart and merged in. At equal times an
	// arrival goes first when its conn is not larger than the
	// departure's: the order a stable time sort of the stream arrival 0,
	// departure 0, arrival 1, … gives. Each arrival precedes its own
	// departure, so none is left after the last.
	type departure struct {
		time float64
		conn lsdb.ConnID
	}
	rate := float64(cfg.Nodes) * cfg.Lambda
	var arrivals []Event
	var departures []departure
	var id lsdb.ConnID
	for t := arrivalRNG.Exp(rate); t < cfg.Duration; t += arrivalRNG.Exp(rate) {
		src, dst := drawPair(pairRNG, cfg, hot)
		life := lifeRNG.Uniform(cfg.LifetimeMin, cfg.LifetimeMax)
		arrivals = append(arrivals, Event{Time: t, Kind: Arrival, Conn: id, Src: src, Dst: dst})
		departures = append(departures, departure{t + life, id})
		id++
	}
	slices.SortFunc(departures, func(a, b departure) int {
		return cmp.Or(cmp.Compare(a.time, b.time), cmp.Compare(a.conn, b.conn))
	})
	// Exactly sized, and nil when no request arrives.
	events := slices.Grow([]Event(nil), 2*len(arrivals))
	for _, d := range departures {
		for len(arrivals) > 0 && (arrivals[0].Time < d.time || arrivals[0].Time == d.time && arrivals[0].Conn <= d.conn) {
			events = append(events, arrivals[0])
			arrivals = arrivals[1:]
		}
		events = append(events, Event{Time: d.time, Kind: Departure, Conn: d.conn})
	}
	return &Scenario{Config: cfg, HotDestinations: hot, Events: events}, nil
}

// drawPair picks a source and a distinct destination per the pattern.
func drawPair(r *rng.Source, cfg Config, hot []graph.NodeID) (graph.NodeID, graph.NodeID) {
	src := graph.NodeID(r.Intn(cfg.Nodes))
	if cfg.Pattern == NT && r.Float64() < cfg.HotFraction {
		for {
			dst := hot[r.Intn(len(hot))]
			if dst != src {
				return src, dst
			}
			// src itself is hot: fall back to any other hot node, or to
			// a uniform draw when src is the only hot node.
			if len(hot) == 1 {
				break
			}
		}
	}
	for {
		dst := graph.NodeID(r.Intn(cfg.Nodes))
		if dst != src {
			return src, dst
		}
	}
}
