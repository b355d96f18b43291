package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/metrics"
	"github.com/rtcl/drtp/internal/rng"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/sim"
)

// This file implements the web-scale experiment (X9 in EXPERIMENTS.md):
// one large topology, sustained Poisson arrivals per (scheme, lambda)
// cell, and a schedule of destructive edge failures whose per-connection
// recovery latencies are sampled. It exists to exercise — and measure —
// the column-stored APLVs and the link-state database on networks two
// orders of magnitude beyond the paper's 60 nodes, where a dense
// O(links²) layout does not fit. No Conflict Vector is materialized on
// this path: D-LSR reads its conflict counts off the APLV columns of its
// primary's links, the one copy of the matrix the database keeps
// (lsdb.ConflictCountsInto).
//
// Everything rendered by Table is deterministic at any worker count (the
// engine.go contract: stable per-cell seeds, ordered merge, ordered
// telemetry forwarding). Wall-clock quantities — establishment
// throughput, peak heap — are deliberately kept out of the table and
// reported through Summary/SummaryJSON instead.

// ScaleParams configures a web-scale run.
type ScaleParams struct {
	// Params supplies the topology (Nodes, Degree, Seed), link dimensions
	// (Capacity, UnitBW), the lambda sweep and Workers.
	Params Params
	// Schemes lists the routing schemes to evaluate; the default is D-LSR
	// and P-LSR. Bounded flooding is excluded by default: it consults the
	// all-pairs distance table, whose O(nodes²) memory is exactly what
	// web-scale runs must avoid.
	Schemes []SchemeSpec
	// Connections is the target number of request arrivals per cell. The
	// run length is derived as Connections / (Nodes · Lambda), so every
	// cell sees the same arrival count regardless of its rate. Default
	// 100000.
	Connections int
	// Failures is the number of destructive edge failures injected per
	// cell, evenly spaced across the measurement window with a repair
	// after half a spacing. Default 32.
	Failures int
}

func (p *ScaleParams) setDefaults() {
	p.Params.setDefaults()
	if p.Params.Nodes <= 0 {
		p.Params.Nodes = 10000
	}
	if len(p.Params.Lambdas) == 0 {
		p.Params.Lambdas = []float64{0.4}
	}
	if len(p.Schemes) == 0 {
		p.Schemes = []SchemeSpec{PaperSchemes()[0], PaperSchemes()[1]}
	}
	if p.Connections <= 0 {
		p.Connections = 100000
	}
	if p.Failures <= 0 {
		p.Failures = 32
	}
}

// ScaleRow is one measured (scheme, lambda) cell.
type ScaleRow struct {
	Scheme string
	Lambda float64
	// Arrivals is the number of request arrivals in the cell's scenario.
	Arrivals int
	Result   *sim.Result
	// DetectP50 / ActivateP50 are medians of the recovery-latency
	// components over recovered connections; TotalP50/P90/P99 are
	// percentiles of their sum. All in hops (see drtp.RecoveryLatency).
	DetectP50   int
	ActivateP50 int
	TotalP50    int
	TotalP90    int
	TotalP99    int
	// APLVBytes is the link-state database's APLV counter storage at the
	// end of the run; BytesPerConn divides it by accepted connections.
	APLVBytes    int64
	BytesPerConn float64
	// Footprint is the database's memory by structure at the end of the
	// run. Excluded from Table: the table's APLV bytes count entries, this
	// counts capacity.
	Footprint lsdb.Footprint
	// Elapsed is the cell's wall-clock simulation time. Excluded from
	// Table: it depends on the machine and the worker count.
	Elapsed time.Duration
}

// Scale holds the rows of one web-scale run plus its wall-clock account.
type Scale struct {
	Params ScaleParams
	Nodes  int
	Links  int
	Rows   []*ScaleRow
	// Elapsed is the whole run's wall-clock time; PeakHeapBytes is the
	// high-water mark of in-use heap during it.
	Elapsed       time.Duration
	PeakHeapBytes uint64
}

// RunScale executes the web-scale experiment. Cells are sharded across
// Params.Workers goroutines; Table output is bit-identical at any worker
// count.
func RunScale(p ScaleParams) (*Scale, error) {
	p.setDefaults()
	//drtplint:ignore determinism establishments/sec and elapsed are wall-clock by definition; they flow to SCALE_JSON, never into the golden-pinned table
	start := time.Now()
	watcher := startHeapWatcher(5 * time.Millisecond)
	defer watcher.Stop()

	g, err := p.Params.Topology()
	if err != nil {
		return nil, err
	}

	// Per lambda: every scheme replays one scenario and failure schedule.
	// Non-destructive sweeps stay off (EvalInterval 0): they evaluate
	// every link per epoch — O(links · connections) work the web-scale
	// runs cannot afford. Recovery metrics come from the destructive
	// schedule instead.
	var cells []cell
	for _, lambda := range p.Params.Lambdas {
		duration := float64(p.Connections) / (float64(p.Params.Nodes) * lambda)
		warmup := 0.2 * duration
		sc, err := scenario.Generate(scenario.Config{
			Nodes:    p.Params.Nodes,
			Lambda:   lambda,
			Duration: duration,
			Pattern:  scenario.UT,
			Seed:     p.Params.cellSeed(fmt.Sprintf("scale/scenario/%.3f", lambda)),
		})
		if err != nil {
			return nil, err
		}
		fails := p.failureSchedule(g, lambda, warmup, duration)
		for _, spec := range p.Schemes {
			cells = append(cells, cell{graph: g, scen: sc, spec: spec,
				seed: p.Params.cellSeed("scale/scheme/" + spec.Name),
				cfg: sim.Config{Warmup: warmup, EndTime: duration, FailureSchedule: fails,
					CollectRecovery: true}})
		}
	}
	aplvBytes := make([]int64, len(cells))
	footprints := make([]lsdb.Footprint, len(cells))
	runs, err := p.Params.run(cells, func(i int, net *drtp.Network, _ drtp.Scheme) {
		aplvBytes[i] = net.DB().APLVBytes()
		footprints[i] = net.DB().Footprint()
	})
	if err != nil {
		return nil, err
	}

	rows := make([]*ScaleRow, len(cells))
	for i, c := range cells {
		r := runs[i]
		row := &ScaleRow{
			Scheme:    c.spec.Name,
			Lambda:    p.Params.Lambdas[i/len(p.Schemes)],
			Arrivals:  c.scen.NumArrivals(),
			Result:    r.res,
			APLVBytes: aplvBytes[i],
			Footprint: footprints[i],
			Elapsed:   r.elapsed,
		}
		if r.res.Stats.Accepted > 0 {
			row.BytesPerConn = float64(row.APLVBytes) / float64(r.res.Stats.Accepted)
		}
		row.fillPercentiles(r.res.Recovery)
		rows[i] = row
	}

	s := &Scale{Params: p, Nodes: g.NumNodes(), Links: g.NumLinks(), Rows: rows}
	s.PeakHeapBytes = watcher.Stop()
	//drtplint:ignore determinism see start above
	s.Elapsed = time.Since(start)
	return s, nil
}

// failureSchedule samples the cell's destructive edge failures from the
// stable cell seed: Failures edges chosen uniformly, evenly spaced across
// the measurement window, each repaired after half a spacing.
func (p ScaleParams) failureSchedule(g *graph.Graph, lambda, warmup, duration float64) []sim.FailureEvent {
	if p.Failures <= 0 || g.NumEdges() == 0 {
		return nil
	}
	r := rng.New(p.Params.cellSeed(fmt.Sprintf("scale/failures/%.3f", lambda)))
	spacing := (duration - warmup) / float64(p.Failures+1)
	evs := make([]sim.FailureEvent, 0, p.Failures)
	for k := 0; k < p.Failures; k++ {
		at := warmup + spacing*float64(k+1)
		evs = append(evs, sim.FailureEvent{
			Time:   at,
			Edge:   graph.EdgeID(r.Intn(g.NumEdges())),
			Repair: at + spacing/2,
		})
	}
	return evs
}

// fillPercentiles derives the row's recovery-latency percentiles from the
// run's samples. Detect/Activate/Total are measured over recovered
// connections only — a dropped connection has no activation, so folding
// it in would deflate the latency of the recoveries that did happen.
func (r *ScaleRow) fillPercentiles(samples []drtp.RecoveryLatency) {
	var detect, activate, total []int
	for _, s := range samples {
		if !s.Switched {
			continue
		}
		detect = append(detect, s.Detect)
		activate = append(activate, s.Activate)
		total = append(total, s.Total())
	}
	sort.Ints(detect)
	sort.Ints(activate)
	sort.Ints(total)
	r.DetectP50 = percentileInt(detect, 0.50)
	r.ActivateP50 = percentileInt(activate, 0.50)
	r.TotalP50 = percentileInt(total, 0.50)
	r.TotalP90 = percentileInt(total, 0.90)
	r.TotalP99 = percentileInt(total, 0.99)
}

// percentileInt returns the nearest-rank q-quantile of a sorted slice
// (0 when empty).
func percentileInt(sorted []int, q float64) int {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// Table renders the run's deterministic measurements: admission,
// recovery-latency percentiles (hops) and APLV storage per cell.
func (s *Scale) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Scale: %d nodes, %d links, %d conns/cell, %d failures",
			s.Nodes, s.Links, s.Params.Connections, s.Params.Failures),
		"scheme", "lambda", "arrivals", "accepted", "switched", "dropped",
		"detP50", "actP50", "totP50", "totP90", "totP99", "aplvBytes", "B/conn")
	for _, r := range s.Rows {
		t.AddRow(r.Scheme, r.Lambda, r.Arrivals, r.Result.Stats.Accepted,
			r.Result.Switched, r.Result.Dropped,
			r.DetectP50, r.ActivateP50, r.TotalP50, r.TotalP90, r.TotalP99,
			r.APLVBytes, fmt.Sprintf("%.1f", r.BytesPerConn))
	}
	return t
}

// ScaleSummary is the machine-readable roll-up of one run, including the
// wall-clock quantities Table deliberately omits. cmd/drtpsim prints it
// as a single SCALE_JSON line; scripts/scale_smoke.sh parses it.
type ScaleSummary struct {
	Nodes            int     `json:"nodes"`
	Links            int     `json:"links"`
	Cells            int     `json:"cells"`
	Arrivals         int64   `json:"arrivals"`
	Accepted         int64   `json:"accepted"`
	EstabPerSec      float64 `json:"establishments_per_sec"`
	BytesPerConn     float64 `json:"bytes_per_conn"`
	PeakHeapBytes    uint64  `json:"peak_heap_bytes"`
	RecoveryTotalP50 int     `json:"recovery_total_p50_hops"`
	RecoveryTotalP99 int     `json:"recovery_total_p99_hops"`
	ElapsedSec       float64 `json:"elapsed_sec"`
	// LSDBBytes is each cell's link-state database by structure.
	LSDBBytes []ScaleCellBytes `json:"lsdb_bytes"`
}

// ScaleCellBytes is one cell's lsdb.Footprint at the end of its run.
type ScaleCellBytes struct {
	Scheme string  `json:"scheme"`
	Lambda float64 `json:"lambda"`
	lsdb.Footprint
}

// Summary aggregates the run across cells. Establishment throughput is
// accepted connections per wall-clock second of simulation time summed
// over cells (so it measures the engine, not the worker count); recovery
// percentiles pool every cell's recovered samples.
func (s *Scale) Summary() ScaleSummary {
	sum := ScaleSummary{
		Nodes:      s.Nodes,
		Links:      s.Links,
		Cells:      len(s.Rows),
		ElapsedSec: s.Elapsed.Seconds(),
	}
	var aplvBytes int64
	var cellSeconds float64
	var total []int
	for _, r := range s.Rows {
		sum.Arrivals += int64(r.Arrivals)
		sum.Accepted += r.Result.Stats.Accepted
		aplvBytes += r.APLVBytes
		cellSeconds += r.Elapsed.Seconds()
		sum.LSDBBytes = append(sum.LSDBBytes, ScaleCellBytes{Scheme: r.Scheme, Lambda: r.Lambda, Footprint: r.Footprint})
		for _, l := range r.Result.Recovery {
			if l.Switched {
				total = append(total, l.Total())
			}
		}
	}
	if cellSeconds > 0 {
		sum.EstabPerSec = float64(sum.Accepted) / cellSeconds
	}
	if sum.Accepted > 0 {
		sum.BytesPerConn = float64(aplvBytes) / float64(sum.Accepted)
	}
	sort.Ints(total)
	sum.RecoveryTotalP50 = percentileInt(total, 0.50)
	sum.RecoveryTotalP99 = percentileInt(total, 0.99)
	sum.PeakHeapBytes = s.PeakHeapBytes
	return sum
}

// SummaryJSON returns Summary as one line of JSON.
func (s *Scale) SummaryJSON() (string, error) {
	b, err := json.Marshal(s.Summary())
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// heapWatcher samples the runtime heap on a ticker and tracks the
// high-water mark of in-use bytes. The scale smoke test holds this peak
// under an absolute ceiling.
type heapWatcher struct {
	stop chan struct{}
	done chan struct{}

	mu   sync.Mutex
	peak uint64
}

// startHeapWatcher begins sampling at the given interval (one synchronous
// sample is taken immediately, so short runs still observe their start).
func startHeapWatcher(interval time.Duration) *heapWatcher {
	w := &heapWatcher{stop: make(chan struct{}), done: make(chan struct{})}
	w.sample()
	go func() {
		defer close(w.done)
		//drtplint:ignore determinism the heap sampler paces itself on the host, like the wall-clock rate it sits beside; it reads no simulated time and feeds no table
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.sample()
			}
		}
	}()
	return w
}

func (w *heapWatcher) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.mu.Lock()
	if ms.HeapAlloc > w.peak {
		w.peak = ms.HeapAlloc
	}
	w.mu.Unlock()
}

// Stop halts the sampler, takes one final sample, and returns the peak.
// Idempotent: repeated calls return the settled peak.
func (w *heapWatcher) Stop() uint64 {
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	<-w.done
	w.sample()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.peak
}
