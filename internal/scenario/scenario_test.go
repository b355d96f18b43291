package scenario

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"
	"testing/quick"

	"github.com/rtcl/drtp/internal/graph"
)

func genConfig(lambda float64, pattern Pattern) Config {
	return Config{
		Nodes:    30,
		Lambda:   lambda,
		Duration: 200,
		Pattern:  pattern,
		Seed:     7,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(genConfig(0.3, UT))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(genConfig(0.3, UT))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := Generate(genConfig(0.3, UT))
	cfg := genConfig(0.3, UT)
	cfg.Seed = 8
	b, _ := Generate(cfg)
	if len(a.Events) == len(b.Events) {
		same := true
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical scenarios")
		}
	}
}

func TestEventsSortedAndPaired(t *testing.T) {
	s, err := Generate(genConfig(0.5, UT))
	if err != nil {
		t.Fatal(err)
	}
	arrivals := make(map[int64]float64)
	for i, e := range s.Events {
		if i > 0 && e.Time < s.Events[i-1].Time {
			t.Fatalf("events out of order at %d", i)
		}
		switch e.Kind {
		case Arrival:
			if _, dup := arrivals[int64(e.Conn)]; dup {
				t.Fatalf("duplicate arrival for conn %d", e.Conn)
			}
			arrivals[int64(e.Conn)] = e.Time
			if e.Src == e.Dst {
				t.Fatalf("conn %d has src == dst", e.Conn)
			}
		case Departure:
			at, ok := arrivals[int64(e.Conn)]
			if !ok {
				t.Fatalf("departure before arrival for conn %d", e.Conn)
			}
			life := e.Time - at
			if life < 20 || life > 60 {
				t.Fatalf("conn %d lifetime %v outside [20,60]", e.Conn, life)
			}
			delete(arrivals, int64(e.Conn))
		}
	}
	if len(arrivals) != 0 {
		t.Fatalf("%d arrivals without departures", len(arrivals))
	}
}

func TestArrivalCountNearExpectation(t *testing.T) {
	s, err := Generate(genConfig(0.5, UT))
	if err != nil {
		t.Fatal(err)
	}
	// Poisson with mean 30 * 0.5 * 200 = 3000, sd ~55.
	want := 3000.0
	got := float64(s.NumArrivals())
	if math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Fatalf("arrivals = %v, want ~%v", got, want)
	}
}

func TestNTHotDestinations(t *testing.T) {
	s, err := Generate(genConfig(0.5, NT))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.HotDestinations) != 10 {
		t.Fatalf("hot destinations = %d", len(s.HotDestinations))
	}
	hot := make(map[graph.NodeID]bool, 10)
	for _, h := range s.HotDestinations {
		hot[h] = true
	}
	hotCount, total := 0, 0
	for _, e := range s.Events {
		if e.Kind != Arrival {
			continue
		}
		total++
		if hot[e.Dst] {
			hotCount++
		}
	}
	frac := float64(hotCount) / float64(total)
	// 50% targeted plus uniform spillover (10/30 of the other half):
	// expected about 0.5 + 0.5*(10/30) ~ 0.66.
	if frac < 0.55 || frac > 0.8 {
		t.Fatalf("hot fraction = %v", frac)
	}
}

func TestUTHasNoHotDestinations(t *testing.T) {
	s, err := Generate(genConfig(0.5, UT))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.HotDestinations) != 0 {
		t.Fatalf("UT scenario has hot destinations: %v", s.HotDestinations)
	}
}

func TestValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nodes", func(c *Config) { c.Nodes = 1 }},
		{"lambda", func(c *Config) { c.Lambda = 0 }},
		{"duration", func(c *Config) { c.Duration = -1 }},
		{"lifetime", func(c *Config) { c.LifetimeMin = 10; c.LifetimeMax = 5 }},
		{"hotdests", func(c *Config) { c.Pattern = NT; c.HotDests = 99 }},
		{"hotfraction", func(c *Config) { c.HotFraction = 1.5 }},
		{"negative hotdests", func(c *Config) { c.Pattern = NT; c.HotDests = -3 }},
		{"NaN lambda", func(c *Config) { c.Lambda = math.NaN() }},
		{"infinite lambda", func(c *Config) { c.Lambda = math.Inf(1) }},
		{"overflowing rate", func(c *Config) { c.Lambda = math.MaxFloat64 }},
		{"NaN duration", func(c *Config) { c.Duration = math.NaN() }},
		{"infinite duration", func(c *Config) { c.Duration = math.Inf(1) }},
		{"NaN lifetime min", func(c *Config) { c.LifetimeMin = math.NaN() }},
		{"infinite lifetime min", func(c *Config) { c.LifetimeMin = math.Inf(1) }},
		{"NaN lifetime max", func(c *Config) { c.LifetimeMax = math.NaN() }},
		{"infinite lifetime max", func(c *Config) { c.LifetimeMax = math.Inf(1) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := genConfig(0.5, UT)
			tt.mutate(&cfg)
			if _, err := Generate(cfg); err == nil {
				t.Fatalf("invalid config accepted")
			}
		})
	}
}

func TestPatternString(t *testing.T) {
	if UT.String() != "UT" || NT.String() != "NT" {
		t.Fatal("pattern strings wrong")
	}
	if Pattern(9).String() == "" {
		t.Fatal("unknown pattern empty")
	}
}

func TestEndTimeEmpty(t *testing.T) {
	var s Scenario
	if s.EndTime() != 0 || s.NumArrivals() != 0 {
		t.Fatal("empty scenario accessors wrong")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s, err := Generate(genConfig(0.4, NT))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Config != s.Config {
		t.Fatalf("config mismatch: %+v vs %+v", got.Config, s.Config)
	}
	if len(got.HotDestinations) != len(s.HotDestinations) {
		t.Fatal("hot destinations mismatch")
	}
	if len(got.Events) != len(s.Events) {
		t.Fatalf("event count mismatch: %d vs %d", len(got.Events), len(s.Events))
	}
	for i := range s.Events {
		if got.Events[i] != s.Events[i] {
			t.Fatalf("event %d mismatch", i)
		}
	}
}

func TestSaveLoad(t *testing.T) {
	s, err := Generate(genConfig(0.4, UT))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scenario.jsonl")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(s.Events) {
		t.Fatal("event count mismatch after file round trip")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.jsonl")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestReadGarbage(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(bytes.NewBufferString(`{"config":{},"numEvents":3}` + "\n")); err == nil {
		t.Fatal("truncated event stream accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	property := func(seed int64, lambdaRaw uint8, nt bool) bool {
		cfg := Config{
			Nodes:    20,
			Lambda:   0.05 + float64(lambdaRaw%40)/100,
			Duration: 100,
			Seed:     seed,
		}
		if nt {
			cfg.Pattern = NT
			cfg.HotDests = 5
		}
		s, err := Generate(cfg)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.Events) != len(s.Events) {
			return false
		}
		for i := range s.Events {
			if got.Events[i] != s.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
