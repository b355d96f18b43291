// Command drtpsim reproduces the paper's evaluation. It runs one of the
// experiments from the index in DESIGN.md and prints the corresponding
// table(s).
//
// Usage:
//
//	drtpsim -exp table1|fig4|fig5|acceptance|overhead|ablation|multibackup|availability|qos|topologies|replay|chaos|scale|all [flags]
//
// Examples:
//
//	drtpsim -exp fig4 -degree 3
//	drtpsim -exp fig5 -degree 4 -csv
//	drtpsim -exp all -quick
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"github.com/rtcl/drtp/internal/experiments"
	"github.com/rtcl/drtp/internal/faultinject"
	"github.com/rtcl/drtp/internal/metrics"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "drtpsim:", err)
		os.Exit(1)
	}
}

// experiment is one -exp name and what it renders.
type experiment struct {
	name string
	// lambda marks the experiments that run at the single -lambda point.
	lambda bool
	run    func(*session) error
}

// experimentTable lists every -exp name in the order -exp's help gives.
var experimentTable = []experiment{
	{name: "table1", run: func(s *session) error { return s.render(experiments.Table1(s.p), nil) }},
	{name: "fig4", run: func(s *session) error {
		return s.figure((*experiments.Sweep).Fig4Table, (*experiments.Sweep).Fig4Chart)
	}},
	{name: "fig5", run: func(s *session) error {
		return s.figure((*experiments.Sweep).Fig5Table, (*experiments.Sweep).Fig5Chart)
	}},
	{name: "acceptance", run: func(s *session) error { return s.figure((*experiments.Sweep).AcceptanceTable, nil) }},
	{name: "overhead", lambda: true, run: func(s *session) error {
		return s.show(experiments.RunOverhead(s.p, scenario.UT, s.lambda))
	}},
	{name: "ablation", run: func(s *session) error { return s.show(experiments.RunAblation(s.p)) }},
	{name: "multibackup", run: func(s *session) error { return s.show(experiments.RunMultiBackup(s.p)) }},
	{name: "availability", lambda: true, run: func(s *session) error {
		ap := experiments.DefaultAvailabilityParams(s.p.Degree)
		ap.Params = s.p
		ap.Lambda = s.lambda
		return s.show(experiments.RunAvailability(ap))
	}},
	{name: "qos", lambda: true, run: func(s *session) error { return s.show(experiments.RunQoS(s.p, s.lambda)) }},
	{name: "topologies", lambda: true, run: func(s *session) error {
		return s.show(experiments.RunTopologySensitivity(s.p, s.lambda))
	}},
	{name: "replay", run: func(s *session) error {
		if s.scenario == "" {
			return fmt.Errorf("replay requires -scenario <file>")
		}
		return s.render(experiments.RunReplay(s.p, s.scenario))
	}},
	{name: "chaos", lambda: true, run: func(s *session) error {
		cp := experiments.ChaosParams{Params: s.p, Lambda: s.lambda}
		if cp.Chaos == nil {
			cp.Chaos = experiments.DefaultChaosSchedule(s.p.Seed)
		}
		return s.show(experiments.RunChaos(cp))
	}},
	{name: "scale", lambda: true, run: func(s *session) error {
		sc, err := experiments.RunScale(s.scale)
		if err != nil {
			return err
		}
		if err := s.render(sc.Table(), nil); err != nil {
			return err
		}
		// Wall-clock metrics live outside the table: machine-readable,
		// one line, parsed by scripts/scale_smoke.sh.
		js, err := sc.SummaryJSON()
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(s.w, "SCALE_JSON %s\n", js)
		return err
	}},
}

// allExperiments is what -exp all runs, in order.
var allExperiments = []string{"table1", "fig4", "fig5", "acceptance", "overhead", "ablation", "multibackup", "availability", "qos"}

// experimentNames joins the table's names, optionally only those that
// read -lambda.
func experimentNames(sep string, lambdaOnly bool) string {
	var names []string
	for _, e := range experimentTable {
		if e.lambda || !lambdaOnly {
			names = append(names, e.name)
		}
	}
	return strings.Join(names, sep)
}

// lookup resolves -exp to the experiments it runs.
func lookup(name string) ([]experiment, error) {
	names := []string{name}
	if name == "all" {
		names = allExperiments
	}
	var exps []experiment
	for _, n := range names {
		i := slices.IndexFunc(experimentTable, func(e experiment) bool { return e.name == n })
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q (want %s|all)", name, experimentNames("|", false))
		}
		exps = append(exps, experimentTable[i])
	}
	return exps, nil
}

// session is one invocation's settings, shared by the experiments it runs.
type session struct {
	p         experiments.Params
	scale     experiments.ScaleParams
	lambda    float64
	scenario  string
	csv, plot bool
	w         io.Writer
	// sweep is the one paper sweep fig4, fig5 and acceptance render from.
	sweep *experiments.Sweep
}

// render writes one table, or passes err on.
func (s *session) render(t *metrics.Table, err error) error {
	if err != nil {
		return err
	}
	if s.csv {
		return t.RenderCSV(s.w)
	}
	if err := t.Render(s.w); err != nil {
		return err
	}
	_, err = fmt.Fprintln(s.w)
	return err
}

// show renders a runner's table, or passes its error on.
func (s *session) show(r interface{ Table() *metrics.Table }, err error) error {
	if err != nil {
		return err
	}
	return s.render(r.Table(), nil)
}

// figure renders one view of the paper sweep, running the sweep on first
// use, and with -plot its chart per traffic pattern.
func (s *session) figure(table func(*experiments.Sweep) *metrics.Table,
	chart func(*experiments.Sweep, scenario.Pattern) *metrics.Chart) error {
	if s.sweep == nil {
		sw, err := experiments.RunSweep(s.p, experiments.PaperSchemes())
		if err != nil {
			return err
		}
		s.sweep = sw
	}
	if err := s.render(table(s.sweep), nil); err != nil {
		return err
	}
	if !s.plot || chart == nil {
		return nil
	}
	for _, pattern := range s.p.Patterns {
		if err := chart(s.sweep, pattern).Render(s.w, 60, 16); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(s.w); err != nil {
			return err
		}
	}
	return nil
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("drtpsim", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "all", "experiment: "+experimentNames("|", false)+"|all")
		degree    = fs.Float64("degree", 3, "average node degree E (3 or 4)")
		seed      = fs.Int64("seed", 1, "master seed for topology and scenarios")
		lambda    = fs.Float64("lambda", 0.5, "arrival rate for single-point experiments ("+experimentNames(", ", true)+")")
		quick     = fs.Bool("quick", false, "scaled-down parameters for a fast run")
		csvOut    = fs.Bool("csv", false, "emit CSV instead of aligned text")
		duration  = fs.Float64("duration", 0, "override run length in minutes")
		reps      = fs.Int("reps", 1, "replications per cell (mean±sd over seeds)")
		plot      = fs.Bool("plot", false, "render fig4/fig5 as ASCII charts too")
		scenFile  = fs.String("scenario", "", "scenario file for -exp replay (see scenariogen)")
		chaosSpec = fs.String("chaos", "", "chaos schedule JSON applied to every run (fault-injection; see README)")
		trace     = fs.String("trace", "", "write protocol events as JSONL to this file")
		metrSum   = fs.Bool("metrics-summary", false, "print aggregated event counters after the experiment")
		runtimeM  = fs.Bool("runtime-metrics", false, "sample Go runtime health during the run and include it in the metrics summary")
		cpuProf   = fs.String("pprof", "", "write a CPU profile of the experiment to this file")
		workers   = fs.Int("workers", runtime.GOMAXPROCS(0),
			"goroutines evaluating experiment cells concurrently (output is identical at any count)")
		scaleNodes = fs.Int("scale-nodes", 0, "-exp scale: network size (default 10000; -quick: 300)")
		scaleConns = fs.Int("scale-conns", 0, "-exp scale: request arrivals per cell (default 100000; -quick: 4000)")
		scaleFails = fs.Int("scale-failures", 0, "-exp scale: destructive edge failures per cell (default 32)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	exps, err := lookup(*exp)
	if err != nil {
		return err
	}

	p := experiments.DefaultParams(*degree)
	p.Seed = *seed
	p.Replications = *reps
	p.Workers = *workers
	if *quick {
		p.Nodes = 30
		p.Duration = 160
		p.Warmup = 80
		p.EvalInterval = 20
		p.Lambdas = quickLambdas(p.Lambdas)
	}
	if *duration > 0 {
		p.Duration = *duration
		p.Warmup = *duration * 0.4
	}
	if *chaosSpec != "" {
		sched, err := faultinject.Load(*chaosSpec)
		if err != nil {
			return err
		}
		p.Chaos = sched
	}
	var (
		tracer *telemetry.Tracer
		reg    *telemetry.Registry
	)
	if *trace != "" || *metrSum || *runtimeM {
		var sinks []telemetry.Sink
		if *metrSum || *runtimeM {
			reg = telemetry.NewRegistry()
		}
		if *metrSum {
			sinks = append(sinks, telemetry.NewMetricsSink(reg))
		}
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				return err
			}
			// The cell engine forwards each finished cell's events in one
			// batch, off the workers' critical path, so a plain buffered
			// writer keeps every event — the trace must reconcile
			// event-for-event with the result tables.
			sinks = append(sinks, telemetry.NewJSONL(f))
		}
		tracer = telemetry.NewTracer(sinks...)
		p.Telemetry = tracer
	}
	var stopSampler func()
	if *runtimeM {
		stopSampler = telemetry.StartRuntimeSampler(reg, 0)
	}

	s := &session{p: p, lambda: *lambda, scenario: *scenFile, csv: *csvOut, plot: *plot, w: w,
		scale: experiments.ScaleParams{Params: p, Connections: *scaleConns, Failures: *scaleFails}}
	s.scale.Params.Nodes = *scaleNodes
	s.scale.Params.Lambdas = []float64{*lambda}
	if *quick {
		if s.scale.Params.Nodes <= 0 {
			s.scale.Params.Nodes = 300
		}
		if s.scale.Connections <= 0 {
			s.scale.Connections = 4000
		}
		if s.scale.Failures <= 0 {
			s.scale.Failures = 8
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	for _, e := range exps {
		if err = e.run(s); err != nil {
			break
		}
	}
	if stopSampler != nil {
		stopSampler() // final runtime scrape before the summary prints
	}
	if cerr := tracer.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("trace: %w", cerr)
	}
	if err == nil && reg != nil {
		if _, err = fmt.Fprintln(w, "# event metrics summary"); err == nil {
			err = reg.WritePrometheus(w)
		}
	}
	return err
}

// quickLambdas thins a sweep to its ends and midpoint.
func quickLambdas(ls []float64) []float64 {
	if len(ls) <= 3 {
		return ls
	}
	return []float64{ls[0], ls[len(ls)/2], ls[len(ls)-1]}
}
