package telemetry_test

import (
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/telemetry"
)

// TestLatencyObserveAllocs is the allocation budget of the histogram
// handles the router and coordinator observe on every message: Observe
// and an already-resolved LatencyVec child allocate nothing.
func TestLatencyObserveAllocs(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Latency("test_observe_seconds", "")
	child := reg.LatencyVec("test_child_seconds", "", "stage").With("setup")
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"LatencyHist.Observe", func() { h.Observe(3 * time.Microsecond) }},
		{"LatencyVec child Observe", func() { child.Observe(5 * time.Millisecond) }},
	} {
		if avg := testing.AllocsPerRun(200, c.fn); avg > 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", c.name, avg)
		}
	}
}
