package telemetry_test

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/telemetry"
)

// TestSLOEvaluateSamples pins the verdict rules: the vacuous pass on no
// samples, the infinite burn of a p100 objective with any excess, the
// burn formula over / ((1-p)·n), and the nearest-rank quantile.
func TestSLOEvaluateSamples(t *testing.T) {
	ten := []float64{7, 3, 10, 1, 9, 2, 8, 4, 6, 5} // 1..10 s, unsorted
	cases := []struct {
		name      string
		pct       float64
		threshold time.Duration
		samples   []float64
		observed  float64
		pass      bool
		burn      float64
	}{
		{"empty passes vacuously", 0.99, time.Second, nil, 0, true, 0},
		{"p100 one excess burns infinitely", 1, 5 * time.Second, []float64{1, 2, 6}, 6, false, math.Inf(1)},
		{"p100 no excess", 1, 5 * time.Second, []float64{1, 2, 5}, 5, true, 0},
		{"burn over allowed share", 0.5, 8 * time.Second, ten, 5, true, 2.0 / 5},
		{"burn above budget", 0.8, 5 * time.Second, ten, 8, false, 5.0 / 2},
		{"nearest rank p50", 0.5, 10 * time.Second, ten, 5, true, 0},
		{"nearest rank rounds up", 0.51, 10 * time.Second, ten, 6, true, 0},
		{"nearest rank p95", 0.95, 10 * time.Second, ten, 10, true, 0},
		{"p1 takes the minimum", 0.01, 10 * time.Second, ten, 1, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := append([]float64(nil), tc.samples...)
			slo := telemetry.SLO{Name: "x", Percentile: tc.pct, Threshold: tc.threshold}
			res := slo.EvaluateSamples(in)
			if !reflect.DeepEqual(in, tc.samples) && len(in) > 0 {
				t.Errorf("EvaluateSamples modified its input: %v", in)
			}
			if res.SLO != slo || res.Samples != int64(len(tc.samples)) {
				t.Errorf("result carries %+v over %d samples", res.SLO, res.Samples)
			}
			if res.Observed != tc.observed {
				t.Errorf("observed = %v, want %v", res.Observed, tc.observed)
			}
			if res.Pass != tc.pass {
				t.Errorf("pass = %v, want %v", res.Pass, tc.pass)
			}
			if math.IsInf(tc.burn, 1) != math.IsInf(res.BudgetBurn, 1) ||
				!math.IsInf(tc.burn, 1) && math.Abs(res.BudgetBurn-tc.burn) > 1e-12 {
				t.Errorf("budget burn = %v, want %v", res.BudgetBurn, tc.burn)
			}
		})
	}
}
