package telemetry

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// SLO is a latency objective: "the Percentile-quantile of <metric> stays
// at or below Threshold", evaluated against latency samples
// reconstructed from a trace (drtptrace slo).
type SLO struct {
	// Name identifies the objective in reports, e.g. "establish-p95".
	Name string `json:"name"`
	// Percentile is the target quantile in (0, 1], e.g. 0.95.
	Percentile float64 `json:"percentile"`
	// Threshold is the latency bound the quantile must not exceed.
	Threshold time.Duration `json:"threshold_ns"`
}

// SLOResult is one evaluated objective.
type SLOResult struct {
	SLO
	// Samples is the number of observations the verdict is based on.
	Samples int64 `json:"samples"`
	// Observed is the measured quantile in seconds.
	Observed float64 `json:"observed_seconds"`
	// Pass reports whether the observed quantile met the threshold.
	// An objective with zero samples passes vacuously.
	Pass bool `json:"pass"`
	// BudgetBurn is the fraction of the error budget consumed: the share
	// of observations over Threshold divided by the allowed share
	// (1 - Percentile). 1.0 means the budget is exactly spent; > 1 means
	// the objective is violated on budget terms.
	BudgetBurn float64 `json:"budget_burn"`
}

// String renders the result as one report line.
func (r SLOResult) String() string {
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%-24s p%g <= %v: observed %v over %d samples, budget burn %.2f [%s]",
		r.Name, 100*r.Percentile, r.Threshold,
		time.Duration(r.Observed*float64(time.Second)).Round(time.Microsecond),
		r.Samples, r.BudgetBurn, verdict)
}

// EvaluateSamples evaluates the objective against raw latency samples in
// seconds (e.g. reconstructed from a trace). The slice is not modified.
func (s SLO) EvaluateSamples(samples []float64) SLOResult {
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	observed := time.Duration(quantileSeconds(sorted, s.Percentile) * float64(time.Second))
	res := SLOResult{SLO: s, Samples: int64(len(sorted)), Observed: observed.Seconds(), Pass: true}
	if len(sorted) == 0 {
		return res
	}
	res.Pass = observed <= s.Threshold
	over := len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > s.Threshold.Seconds() })
	allowed := (1 - s.Percentile) * float64(len(sorted))
	switch {
	case allowed > 0:
		res.BudgetBurn = float64(over) / allowed
	case over > 0:
		// A p100 objective has no budget: any excess observation burns
		// infinitely.
		res.BudgetBurn = math.Inf(1)
	}
	return res
}

// Summary is the percentile digest of one latency population.
type Summary struct {
	Samples int     `json:"samples"`
	Min     float64 `json:"min"`
	P50     float64 `json:"p50"`
	P90     float64 `json:"p90"`
	P95     float64 `json:"p95"`
	P99     float64 `json:"p99"`
	Max     float64 `json:"max"`
	Mean    float64 `json:"mean"`
}

// Summarize digests samples with the nearest-rank estimator the SLO
// verdicts use, so report tables and verdicts cannot disagree on method.
// The slice is not modified.
func Summarize(samples []float64) Summary {
	s := Summary{Samples: len(samples)}
	if len(samples) == 0 {
		return s
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.P50 = quantileSeconds(sorted, 0.50)
	s.P90 = quantileSeconds(sorted, 0.90)
	s.P95 = quantileSeconds(sorted, 0.95)
	s.P99 = quantileSeconds(sorted, 0.99)
	s.Mean = sum / float64(len(sorted))
	return s
}

// quantileSeconds returns the nearest-rank q-quantile of an ascending
// sorted slice (0 for an empty one).
func quantileSeconds(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
