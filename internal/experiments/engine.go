package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/sim"
	"github.com/rtcl/drtp/internal/telemetry"
)

// This file implements the cell engine every runner in the package goes
// through. The evaluation is a grid of independent cells — a scheme on a
// fresh network replaying one scenario — so each runner only enumerates
// its cells, hands them to Params.run, and folds the results into rows.
// The engine owns the rest, and its contract is simple but strict:
//
//   - Cells are enumerated up front in the exact order a serial loop
//     would visit them. Cell i writes only result slot i.
//   - Every per-cell random stream is derived from a stable label via
//     rng.Split (Params.cellSeed), never from a shared sequential
//     generator, so the assignment of cells to workers cannot perturb
//     any draw.
//   - Telemetry from concurrent cells is captured in short-lived
//     per-cell buffers and streamed to the shared tracer in cell order
//     as the completed prefix advances (telemetryStream). A windowed
//     admission bound keeps at most O(workers) cell buffers alive, so
//     trace memory is independent of sweep size while the forwarded
//     event order stays bit-identical at any worker count.
//   - Aggregates (metrics.Sample) are merged in cell order during the
//     single-threaded fold that follows the run.
//
// Together these make every runner bit-identical to its serial execution
// at any worker count.

// cell is one simulator run: spec's scheme, built with seed, on a fresh
// network over graph replaying scen.
type cell struct {
	graph *graph.Graph
	scen  *scenario.Scenario
	spec  SchemeSpec
	seed  int64
	// mode sizes spare capacity; zero means multiplexed backups.
	mode lsdb.Mode
	// cfg holds the cell's own run settings (warm-up, sweeps, failures,
	// QoS bound, ...); run fills in ManagerOpts from spec and Chaos and
	// Telemetry from Params.
	cfg sim.Config
}

// cellRun is what one cell leaves behind.
type cellRun struct {
	res *sim.Result
	// elapsed is the wall time of the simulation alone.
	elapsed time.Duration
}

// run executes cells on Params.Workers goroutines and returns their runs
// in cell order. Params supplies the link dimensions, the chaos schedule
// applied to every cell, and the tracer the cells' telemetry is forwarded
// to in cell order. inspect, when non-nil, sees cell i's network and
// scheme as soon as its run ends, on the goroutine that ran it, and may
// write only what belongs to cell i; the network is dropped after that,
// so a run holds at most one network per worker.
func (p Params) run(cells []cell, inspect func(i int, net *drtp.Network, schm drtp.Scheme)) ([]cellRun, error) {
	runs := make([]cellRun, len(cells))
	workers := p.workerCount()
	stream := newTelemetryStream(p.Telemetry, len(cells), workers)
	err := runParallel(workers, len(cells), func(i int) error {
		c := cells[i]
		if c.mode == 0 {
			c.mode = lsdb.Multiplexed
		}
		net, err := drtp.NewNetworkWithMode(c.graph, p.Capacity, p.UnitBW, c.mode)
		if err != nil {
			return err
		}
		schm := c.spec.New(c.seed)
		c.cfg.ManagerOpts = c.spec.ManagerOpts
		c.cfg.Chaos = p.Chaos
		var done func()
		c.cfg.Telemetry, done = stream.cell(i)
		defer done()
		//drtplint:ignore determinism a cell's wall time feeds only the scale runner's SCALE_JSON rate, never a table
		start := time.Now()
		res, err := sim.Run(net, schm, c.scen, c.cfg)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", c.spec.Name, err)
		}
		//drtplint:ignore determinism see start above
		runs[i] = cellRun{res: res, elapsed: time.Since(start)}
		if inspect != nil {
			inspect(i, net, schm)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// workerCount resolves Params.Workers: non-positive means one goroutine
// per available CPU.
func (p Params) workerCount() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runParallel executes jobs 0..n-1 on up to workers goroutines and waits
// for all of them. Each job must confine its writes to its own result
// slot. The returned error is the lowest-indexed job error, so the error
// surfaced to the caller does not depend on scheduling either.
func runParallel(workers, n int, job func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// telemetryStream forwards per-cell telemetry to the shared tracer in
// cell order while jobs still run. Cell i's events are captured in a
// private buffer; as soon as the completed prefix reaches i the buffer
// is replayed into the shared sinks and freed. Admission is windowed:
// cell i may not start buffering until fewer than window cells separate
// it from the oldest unflushed cell, which caps live buffers — and with
// a streaming sink downstream, total trace memory — regardless of how
// many cells the sweep has. A nil *telemetryStream (disabled tracer) is
// a no-op.
type telemetryStream struct {
	shared *telemetry.Tracer
	window int

	mu   sync.Mutex
	cond *sync.Cond
	head int // lowest cell index not yet forwarded
	bufs []*telemetry.Buffer
	done []bool
	// flushing marks that one worker is currently draining the completed
	// prefix into the shared tracer. Forwarding happens outside mu — a
	// slow downstream sink must not stall workers completing later cells —
	// and the single-flusher discipline keeps the forwarded order strictly
	// head-sequential.
	flushing bool
	// free pools drained cell buffers for reuse, so a sweep allocates
	// O(window) buffers total instead of one per cell.
	free []*telemetry.Buffer
}

// newTelemetryStream sets up ordered forwarding for n cells run by the
// given worker count. It returns nil when the shared tracer is disabled.
func newTelemetryStream(shared *telemetry.Tracer, n, workers int) *telemetryStream {
	if !shared.Enabled() || n == 0 {
		return nil
	}
	window := 4 * workers
	if window < 8 {
		window = 8
	}
	s := &telemetryStream{
		shared: shared,
		window: window,
		bufs:   make([]*telemetry.Buffer, n),
		done:   make([]bool, n),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// cell admits cell i, blocking while it is more than window cells ahead
// of the oldest unflushed one, and returns the tracer the cell must emit
// into plus the completion callback. The callback must run exactly once
// when the cell finishes (success or error); defer it.
func (s *telemetryStream) cell(i int) (*telemetry.Tracer, func()) {
	if s == nil {
		return nil, func() {}
	}
	s.mu.Lock()
	for i >= s.head+s.window {
		s.cond.Wait()
	}
	var buf *telemetry.Buffer
	if n := len(s.free); n > 0 {
		buf = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		buf = telemetry.NewBuffer()
	}
	s.bufs[i] = buf
	s.mu.Unlock()
	return telemetry.NewTracer(buf), func() { s.complete(i) }
}

// complete marks cell i finished and forwards every newly-contiguous
// completed cell to the shared tracer, recycling its buffer. Exactly one
// worker flushes at a time, and it forwards with the stream unlocked:
// other workers completing cells meanwhile just mark them done and
// return, and the flusher picks the cells up when it re-checks the
// prefix — so cell-ordered forwarding is preserved without ever making a
// worker wait on the downstream sinks.
func (s *telemetryStream) complete(i int) {
	s.mu.Lock()
	s.done[i] = true
	if s.flushing {
		s.mu.Unlock()
		return
	}
	s.flushing = true
	for s.head < len(s.done) && s.done[s.head] {
		buf := s.bufs[s.head]
		s.bufs[s.head] = nil
		s.head++
		s.cond.Broadcast()
		s.mu.Unlock()
		s.shared.ForwardBatch(buf.Take())
		buf.Reset()
		s.mu.Lock()
		s.free = append(s.free, buf)
	}
	s.flushing = false
	s.mu.Unlock()
}
