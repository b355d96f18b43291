package experiments

import (
	"bytes"
	"testing"
)

func tinyChaosParams() ChaosParams {
	p := ChaosParams{Params: tinyParams(), Lambda: 0.3}
	p.Chaos = DefaultChaosSchedule(3)
	return p
}

func TestRunChaosProducesAllSchemes(t *testing.T) {
	c, err := RunChaos(tinyChaosParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Rows) != 3 {
		t.Fatalf("rows = %d, want one per scheme", len(c.Rows))
	}
	for _, r := range c.Rows {
		if r.Result == nil || r.Result.Stats.Accepted == 0 {
			t.Fatalf("scheme %s: empty result", r.Scheme)
		}
		if r.Result.Stats.SignalRetries == 0 {
			t.Fatalf("scheme %s: chaos signalling produced no retries", r.Scheme)
		}
	}
	var rendered bytes.Buffer
	if err := c.Table().Render(&rendered); err != nil || rendered.Len() == 0 {
		t.Fatalf("table render: %v (%d bytes)", err, rendered.Len())
	}
}

func TestRunChaosNeedsSchedule(t *testing.T) {
	p := tinyChaosParams()
	p.Chaos = nil
	if _, err := RunChaos(p); err == nil {
		t.Fatal("nil schedule accepted")
	}
	p.Chaos = DefaultChaosSchedule(3)
	if _, err := RunChaos(p); err != nil {
		t.Fatal(err)
	}
}
