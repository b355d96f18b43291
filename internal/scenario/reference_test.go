package scenario

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/rng"
)

// referenceGenerate is the earlier Generate, kept as the reference the
// merged one is held to: arrivals and departures appended pairwise, then
// one stable sort of the whole stream by time.
func referenceGenerate(cfg Config) (*Scenario, error) {
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

	rate := float64(cfg.Nodes) * cfg.Lambda
	var events []Event
	var id lsdb.ConnID
	for t := arrivalRNG.Exp(rate); t < cfg.Duration; t += arrivalRNG.Exp(rate) {
		src, dst := drawPair(pairRNG, cfg, hot)
		life := lifeRNG.Uniform(cfg.LifetimeMin, cfg.LifetimeMax)
		events = append(events,
			Event{Time: t, Kind: Arrival, Conn: id, Src: src, Dst: dst},
			Event{Time: t + life, Kind: Departure, Conn: id},
		)
		id++
	}
	slices.SortStableFunc(events, func(a, b Event) int { return cmp.Compare(a.Time, b.Time) })
	return &Scenario{Config: cfg, HotDestinations: hot, Events: events}, nil
}

// matchReference fails t unless Generate and referenceGenerate agree on
// cfg, both in error and in every field of the scenario.
func matchReference(t *testing.T, cfg Config) {
	t.Helper()
	got, gerr := Generate(cfg)
	want, werr := referenceGenerate(cfg)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%+v: error %v, reference %v", cfg, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		i := 0
		for got != nil && want != nil && i < min(len(got.Events), len(want.Events)) && got.Events[i] == want.Events[i] {
			i++
		}
		t.Fatalf("%+v: scenario differs from the reference at event %d", cfg, i)
	}
}

func TestGenerateMatchesReference(t *testing.T) {
	for _, pat := range []Pattern{UT, NT} {
		for _, duration := range []float64{160, 400} {
			for l := 2; l <= 10; l++ {
				lambda := float64(l) / 10
				t.Run(fmt.Sprintf("%s/%g/%.1f", pat, duration, lambda), func(t *testing.T) {
					matchReference(t, Config{Nodes: 60, Lambda: lambda, Duration: duration, Pattern: pat, Seed: int64(l)})
				})
			}
		}
	}
	// Equal lifetimes map arrivals to departures in order. A lifetime
	// below the arrival times' ulp makes each departure tie its own
	// arrival, and one far above makes departures tie each other.
	for _, life := range []float64{1e-300, 0.5, 40, 1e17} {
		t.Run(fmt.Sprintf("life=%g", life), func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				matchReference(t, Config{Nodes: 60, Lambda: 0.5, Duration: 160,
					LifetimeMin: life, LifetimeMax: life, Pattern: NT, Seed: seed})
			}
		})
	}
	// Lifetimes 17 orders above the arrival times round departures to a
	// coarse grid, so many tie in no particular conn order.
	t.Run("departure ties", func(t *testing.T) {
		for seed := int64(0); seed < 20; seed++ {
			matchReference(t, Config{Nodes: 60, Lambda: 0.5, Duration: 160,
				LifetimeMin: 1e17, LifetimeMax: 1e17 + 1<<14, Seed: seed})
		}
	})
	t.Run("10000 nodes", func(t *testing.T) {
		if testing.Short() {
			t.Skip("100 k arrivals")
		}
		matchReference(t, Config{Nodes: 10000, Lambda: 0.05, Duration: 200, Seed: 1})
	})
}

// FuzzGenerateMatchesReference holds Generate to referenceGenerate on
// arbitrary configurations of at most about 10⁴ events.
func FuzzGenerateMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(60), 0.5, 160.0, 20.0, 60.0, false, uint8(10))
	f.Add(int64(2), uint16(12), 1.0, 30.0, 1e-300, 1e-300, true, uint8(3))
	f.Add(int64(3), uint16(2), 0.1, 100.0, 1e17, 1e17, true, uint8(1))
	f.Add(int64(4), uint16(500), 0.01, 400.0, 0.0, 0.0, true, uint8(0))
	f.Add(int64(3), uint16(2), 0.1, 0.01, 20.0, 60.0, false, uint8(0)) // no arrival at all
	f.Fuzz(func(t *testing.T, seed int64, nodes uint16, lambda, duration, lifeMin, lifeMax float64, nt bool, hot uint8) {
		if !(float64(nodes)*lambda*duration <= 5000) {
			t.Skip("more than about 10⁴ events")
		}
		cfg := Config{Nodes: int(nodes), Lambda: lambda, Duration: duration,
			LifetimeMin: lifeMin, LifetimeMax: lifeMax, Pattern: UT, HotDests: int(hot), Seed: seed}
		if nt {
			cfg.Pattern = NT
		}
		matchReference(t, cfg)
	})
}

// BenchmarkGenerate times one scenario of the paper sweep's λ = 0.7 NT
// cell (60 nodes, 160 minutes, lifetimes U[20,60]) and one of the 10 k
// node -exp scale run's (λ = 0.5, 100 k arrivals over 20 minutes).
func BenchmarkGenerate(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"paper_sweep", Config{Nodes: 60, Lambda: 0.7, Duration: 160, Pattern: NT, Seed: 1}},
		{"scale_10k", Config{Nodes: 10000, Lambda: 0.5, Duration: 20, Seed: 1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Generate(bc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
