package drtp

import (
	"fmt"

	"github.com/rtcl/drtp/internal/lifecycle"
	"github.com/rtcl/drtp/internal/rng"
)

// ErrSignalTimeout indicates a signalling round trip was lost on every
// attempt of its retry budget; the operation is reported failed rather
// than hanging (graceful degradation under chaos).
var ErrSignalTimeout = fmt.Errorf("drtp: %w", lifecycle.ErrTimeout)

// signalFaults models a lossy signalling network for the centralized
// manager, which has no packet transport to inject faults into: each
// round trip is lost with probability drop and retried up to retries
// attempts. Decisions are drawn from one seeded stream in operation
// order, so a run is a pure function of (seed, workload).
type signalFaults struct {
	drop    float64
	retries int
	src     *rng.Source
}

// WithSignalFaults makes the manager's signalling round trips (every
// reserve, register and activate of the lifecycle) lossy: each attempt
// fails with probability drop and is retried up to retries attempts
// (default 3 when retries < 1) before the operation is reported failed.
// Deterministic in seed. A drop of 0 disables the model.
func WithSignalFaults(drop float64, retries int, seed int64) ManagerOption {
	return func(m *Manager) {
		if drop <= 0 {
			return
		}
		n := retries
		if n < 1 {
			n = 3
		}
		m.signal = &signalFaults{drop: drop, retries: n, src: rng.New(seed).Split("signal")}
	}
}

// signalOK models one signalling round trip: lost attempts are retried
// (counted in Stats.SignalRetries and emitted as retry events) until one
// succeeds or the budget is exhausted, which counts a signalling timeout.
func (m *Manager) signalOK(trace uint64, id ConnID, op string) bool {
	sf := m.signal
	if sf == nil {
		return true
	}
	for a := 0; a < sf.retries; a++ {
		if a > 0 {
			m.stats.SignalRetries++
			m.tracer.Retry(m.schemeName, trace, int64(id), op)
		}
		if sf.src.Float64() >= sf.drop {
			return true
		}
	}
	m.stats.SignalTimeouts++
	return false
}
