package experiments

import (
	"testing"

	"github.com/rtcl/drtp/internal/faultinject"
	"github.com/rtcl/drtp/internal/metrics"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/telemetry"
)

// tableOf renders a runner's result, or passes its error on.
func tableOf[R interface{ Table() *metrics.Table }](r R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Table().String(), nil
}

// TestRunnersApplyChaosAndTelemetry checks that every runner hands
// Params.Telemetry and Params.Chaos to each cell it runs, as Params
// documents: a tracer records events, and a schedule that loses nearly
// every signalling round trip changes the result.
func TestRunnersApplyChaosAndTelemetry(t *testing.T) {
	runners := []struct {
		name string
		run  func(Params) (string, error)
	}{
		{"ablation", func(p Params) (string, error) { return tableOf(RunAblation(p)) }},
		{"multibackup", func(p Params) (string, error) { return tableOf(RunMultiBackup(p)) }},
		{"overhead", func(p Params) (string, error) { return tableOf(RunOverhead(p, scenario.UT, 0.3)) }},
		{"qos", func(p Params) (string, error) { return tableOf(RunQoS(p, 0.3)) }},
		{"topologies", func(p Params) (string, error) { return tableOf(RunTopologySensitivity(p, 0.3)) }},
		{"availability", func(p Params) (string, error) {
			return tableOf(RunAvailability(AvailabilityParams{
				Params: p, Lambda: 0.3, MeanTimeBetweenFailures: 20, RepairTime: 15,
			}))
		}},
		{"scale", func(p Params) (string, error) {
			return tableOf(RunScale(ScaleParams{Params: p, Connections: 400, Failures: 2}))
		}},
	}
	lossy := &faultinject.Schedule{Seed: 1, Signal: &faultinject.SignalFaults{Drop: 0.99, Retries: 1}}
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			events := telemetry.NewBuffer()
			traced := tinyParams()
			traced.Telemetry = telemetry.NewTracer(events)
			clean, err := r.run(traced)
			if err != nil {
				t.Fatal(err)
			}
			if events.Len() == 0 {
				t.Error("Params.Telemetry recorded no events")
			}
			faulted := tinyParams()
			faulted.Chaos = lossy
			got, err := r.run(faulted)
			if err != nil {
				t.Fatal(err)
			}
			if got == clean {
				t.Errorf("Params.Chaos left the result unchanged:\n%s", got)
			}
		})
	}
}
