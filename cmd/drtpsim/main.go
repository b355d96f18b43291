// Command drtpsim reproduces the paper's evaluation. It runs one of the
// experiments from the index in DESIGN.md and prints the corresponding
// table(s).
//
// Usage:
//
//	drtpsim -exp table1|fig4|fig5|overhead|ablation|multibackup|availability|qos|all [flags]
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

	drtpcore "github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/experiments"
	"github.com/rtcl/drtp/internal/faultinject"
	"github.com/rtcl/drtp/internal/metrics"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/sim"
	"github.com/rtcl/drtp/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "drtpsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("drtpsim", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "all", "experiment: table1|fig4|fig5|acceptance|overhead|ablation|multibackup|availability|qos|topologies|replay|chaos|scale|all")
		degree    = fs.Float64("degree", 3, "average node degree E (3 or 4)")
		seed      = fs.Int64("seed", 1, "master seed for topology and scenarios")
		lambda    = fs.Float64("lambda", 0.5, "arrival rate for single-point experiments (overhead)")
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
			// Stream through a bounded queue so trace memory no longer
			// grows with run length. Lossless mode: the trace must
			// reconcile event-for-event with the result tables, so a
			// full queue backpressures the cell-forwarding loop rather
			// than dropping.
			sinks = append(sinks, telemetry.NewLosslessStreamSink(f, 0, reg))
		}
		tracer = telemetry.NewTracer(sinks...)
		p.Telemetry = tracer
	}
	var stopSampler func()
	if *runtimeM {
		stopSampler = telemetry.StartRuntimeSampler(reg, 0)
	}

	render := func(t *metrics.Table) error {
		if *csvOut {
			return t.RenderCSV(w)
		}
		if err := t.Render(w); err != nil {
			return err
		}
		_, err := fmt.Fprintln(w)
		return err
	}

	runSweep := func() (*experiments.Sweep, error) {
		return experiments.RunSweep(p, experiments.PaperSchemes())
	}

	dispatch := func() error {
		switch *exp {
		case "table1":
			return render(experiments.Table1(p))
		case "fig4":
			s, err := runSweep()
			if err != nil {
				return err
			}
			if err := render(s.Fig4Table()); err != nil {
				return err
			}
			if *plot {
				return renderCharts(w, p, s, (*experiments.Sweep).Fig4Chart)
			}
			return nil
		case "fig5":
			s, err := runSweep()
			if err != nil {
				return err
			}
			if err := render(s.Fig5Table()); err != nil {
				return err
			}
			if *plot {
				return renderCharts(w, p, s, (*experiments.Sweep).Fig5Chart)
			}
			return nil
		case "acceptance":
			s, err := runSweep()
			if err != nil {
				return err
			}
			return render(s.AcceptanceTable())
		case "overhead":
			o, err := experiments.RunOverhead(p, scenario.UT, *lambda)
			if err != nil {
				return err
			}
			return render(o.Table())
		case "ablation":
			a, err := experiments.RunAblation(p)
			if err != nil {
				return err
			}
			return render(a.Table())
		case "multibackup":
			mb, err := experiments.RunMultiBackup(p)
			if err != nil {
				return err
			}
			return render(mb.Table())
		case "topologies":
			ts, err := experiments.RunTopologySensitivity(p, *lambda)
			if err != nil {
				return err
			}
			return render(ts.Table())
		case "replay":
			return replayScenario(p, *scenFile, *seed, w, *csvOut)
		case "chaos":
			cp := experiments.ChaosParams{Params: p, Lambda: *lambda, Schedule: p.Chaos}
			if cp.Schedule == nil {
				cp.Schedule = experiments.DefaultChaosSchedule(*seed)
			}
			c, err := experiments.RunChaos(cp)
			if err != nil {
				return err
			}
			return render(c.Table())
		case "qos":
			q, err := experiments.RunQoS(p, *lambda)
			if err != nil {
				return err
			}
			return render(q.Table())
		case "scale":
			sp := experiments.ScaleParams{
				Params:      p,
				Connections: *scaleConns,
				Failures:    *scaleFails,
			}
			sp.Params.Nodes = *scaleNodes
			sp.Params.Lambdas = []float64{*lambda}
			if *quick {
				if sp.Params.Nodes <= 0 {
					sp.Params.Nodes = 300
				}
				if sp.Connections <= 0 {
					sp.Connections = 4000
				}
				if sp.Failures <= 0 {
					sp.Failures = 8
				}
			}
			s, err := experiments.RunScale(sp)
			if err != nil {
				return err
			}
			if err := render(s.Table()); err != nil {
				return err
			}
			// Wall-clock metrics live outside the table: machine-readable,
			// one line, parsed by scripts/scale_smoke.sh.
			js, err := s.SummaryJSON()
			if err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "SCALE_JSON %s\n", js)
			return err
		case "availability":
			ap := experiments.DefaultAvailabilityParams(*degree)
			ap.Params = p
			ap.Lambda = *lambda
			av, err := experiments.RunAvailability(ap)
			if err != nil {
				return err
			}
			return render(av.Table())
		case "all":
			if err := render(experiments.Table1(p)); err != nil {
				return err
			}
			s, err := runSweep()
			if err != nil {
				return err
			}
			if err := render(s.Fig4Table()); err != nil {
				return err
			}
			if err := render(s.Fig5Table()); err != nil {
				return err
			}
			if err := render(s.AcceptanceTable()); err != nil {
				return err
			}
			o, err := experiments.RunOverhead(p, scenario.UT, *lambda)
			if err != nil {
				return err
			}
			if err := render(o.Table()); err != nil {
				return err
			}
			a, err := experiments.RunAblation(p)
			if err != nil {
				return err
			}
			if err := render(a.Table()); err != nil {
				return err
			}
			mb, err := experiments.RunMultiBackup(p)
			if err != nil {
				return err
			}
			if err := render(mb.Table()); err != nil {
				return err
			}
			ap := experiments.DefaultAvailabilityParams(*degree)
			ap.Params = p
			ap.Lambda = *lambda
			av, err := experiments.RunAvailability(ap)
			if err != nil {
				return err
			}
			if err := render(av.Table()); err != nil {
				return err
			}
			q, err := experiments.RunQoS(p, *lambda)
			if err != nil {
				return err
			}
			return render(q.Table())
		default:
			return fmt.Errorf("unknown experiment %q", *exp)
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

	err := dispatch()
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

// renderCharts draws one ASCII chart per traffic pattern.
func renderCharts(w io.Writer, p experiments.Params, s *experiments.Sweep,
	chart func(*experiments.Sweep, scenario.Pattern) *metrics.Chart) error {
	for _, pattern := range p.Patterns {
		if err := chart(s, pattern).Render(w, 60, 16); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// quickLambdas thins a sweep to its ends and midpoint.
func quickLambdas(ls []float64) []float64 {
	if len(ls) <= 3 {
		return ls
	}
	return []float64{ls[0], ls[len(ls)/2], ls[len(ls)-1]}
}

// replayScenario replays one scenario file across the paper's schemes on
// a fresh Waxman topology, the paper's exact comparison workflow.
func replayScenario(p experiments.Params, path string, seed int64, w io.Writer, csvOut bool) error {
	if path == "" {
		return fmt.Errorf("replay requires -scenario <file>")
	}
	sc, err := scenario.Load(path)
	if err != nil {
		return err
	}
	p.Nodes = sc.Config.Nodes
	g, err := p.Topology()
	if err != nil {
		return err
	}
	warmup := sc.Config.Duration * 0.4
	t := metrics.NewTable(
		fmt.Sprintf("Replay of %s (%d arrivals, %s)", path, sc.NumArrivals(), sc.Config.Pattern),
		"scheme", "P_act-bk", "accepted", "requests", "avgLoad", "spareLoad")
	for _, spec := range append(experiments.PaperSchemes(), experiments.NoBackupSpec()) {
		net, err := drtpcore.NewNetworkWithMode(g, p.Capacity, p.UnitBW, p.Mode)
		if err != nil {
			return err
		}
		res, err := sim.Run(net, spec.New(seed), sc, sim.Config{
			Warmup:       warmup,
			EvalInterval: p.EvalInterval,
			ManagerOpts:  spec.ManagerOpts,
			Telemetry:    p.Telemetry,
			Chaos:        p.Chaos,
		})
		if err != nil {
			return err
		}
		t.AddRow(spec.Name, res.FaultTolerance, res.AcceptedInWindow, res.RequestsInWindow,
			metrics.Percent(res.AvgLoad), metrics.Percent(res.AvgSpareLoad))
	}
	if csvOut {
		return t.RenderCSV(w)
	}
	return t.Render(w)
}
