package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/rtcl/drtp/internal/telemetry"
)

// sloOutput is the machine-readable verdict document.
type sloOutput struct {
	Unit string `json:"unit"`
	// Establishment is request->active latency from reconstructed
	// connection spans; Disruption is link-fail->backup-activate.
	Establishment          telemetry.Summary            `json:"establishment"`
	EstablishmentPerScheme map[string]telemetry.Summary `json:"establishment_per_scheme,omitempty"`
	Disruption             telemetry.Summary            `json:"disruption"`
	DisruptionPerScheme    map[string]telemetry.Summary `json:"disruption_per_scheme,omitempty"`
	Objectives             []telemetry.SLOResult        `json:"objectives"`
	Pass                   bool                         `json:"pass"`
	// DroppedEvents counts events the trace writer dropped; the
	// percentiles above are from an incomplete trace when it is nonzero.
	DroppedEvents int64 `json:"dropped_events,omitempty"`
}

// sloSpec is one parsed -slo flag: which population, which quantile,
// which bound.
type sloSpec struct {
	metric string // "establish" or "disruption"
	slo    telemetry.SLO
}

// parseSLOSpec parses "establish:p95:250ms" / "disruption:p99:1s".
func parseSLOSpec(s string) (sloSpec, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return sloSpec{}, fmt.Errorf("bad -slo %q (want metric:pNN:threshold, e.g. establish:p95:250ms)", s)
	}
	metric := parts[0]
	if metric != "establish" && metric != "disruption" {
		return sloSpec{}, fmt.Errorf("bad -slo metric %q (want establish or disruption)", metric)
	}
	var pct float64
	if _, err := fmt.Sscanf(parts[1], "p%f", &pct); err != nil || pct <= 0 || pct > 100 {
		return sloSpec{}, fmt.Errorf("bad -slo percentile %q (want p50..p100)", parts[1])
	}
	threshold, err := time.ParseDuration(parts[2])
	if err != nil {
		return sloSpec{}, fmt.Errorf("bad -slo threshold %q: %v", parts[2], err)
	}
	return sloSpec{metric: metric, slo: telemetry.SLO{
		Name:       fmt.Sprintf("%s-%s", metric, parts[1]),
		Percentile: pct / 100,
		Threshold:  threshold,
	}}, nil
}

// runSLO implements the "slo" subcommand: establishment-latency and
// service-disruption percentiles per scheme, plus pass/fail verdicts for
// the configured latency objectives.
func runSLO(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("drtptrace slo", flag.ContinueOnError)
	var (
		format = fs.String("format", "text", "output format: text|json")
		unit   = fs.String("unit", "seconds", `trace time unit: "seconds" (drtpnode wall clock) or "minutes" (drtpsim scenario time)`)
		specs  []sloSpec
	)
	fs.Func("slo", "objective metric:pNN:threshold (repeatable; e.g. establish:p95:250ms, disruption:p99:1s)",
		func(s string) error {
			spec, err := parseSLOSpec(s)
			if err != nil {
				return err
			}
			specs = append(specs, spec)
			return nil
		})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no trace files given (usage: drtptrace slo [flags] trace.jsonl...)")
	}
	var scale float64
	switch *unit {
	case "seconds", "s":
		scale = 1
	case "minutes", "m":
		scale = 60
	default:
		return fmt.Errorf("unknown -unit %q (want seconds or minutes)", *unit)
	}
	if len(specs) == 0 {
		specs = []sloSpec{
			{metric: "establish", slo: telemetry.SLO{Name: "establish-p95", Percentile: 0.95, Threshold: 500 * time.Millisecond}},
			{metric: "disruption", slo: telemetry.SLO{Name: "disruption-p99", Percentile: 0.99, Threshold: time.Second}},
		}
	}

	tr, err := readTrace(fs.Args())
	if err != nil {
		return err
	}

	// Establishment latency: request -> active, per reconstructed span.
	var establish []float64
	establishByScheme := map[string][]float64{}
	for _, sp := range tr.Spans {
		if sp.RequestT < 0 || sp.ActiveT < sp.RequestT {
			continue
		}
		v := (sp.ActiveT - sp.RequestT) * scale
		establish = append(establish, v)
		establishByScheme[sp.Scheme] = append(establishByScheme[sp.Scheme], v)
	}

	// Service disruption: link-fail -> backup-activate, recovered only.
	var disrupt []float64
	disruptByScheme := map[string][]float64{}
	for _, r := range tr.Recoveries {
		for _, o := range r.Outcomes {
			if !o.Recovered {
				continue
			}
			v := o.Disruption * scale
			disrupt = append(disrupt, v)
			disruptByScheme[o.Scheme] = append(disruptByScheme[o.Scheme], v)
		}
	}

	out := sloOutput{
		Unit:                   *unit,
		Establishment:          telemetry.Summarize(establish),
		EstablishmentPerScheme: summarizePerScheme(establishByScheme),
		Disruption:             telemetry.Summarize(disrupt),
		DisruptionPerScheme:    summarizePerScheme(disruptByScheme),
		Pass:                   true,
		DroppedEvents:          tr.Dropped,
	}
	for _, spec := range specs {
		samples := establish
		if spec.metric == "disruption" {
			samples = disrupt
		}
		res := spec.slo.EvaluateSamples(samples)
		out.Objectives = append(out.Objectives, res)
		if !res.Pass {
			out.Pass = false
		}
	}

	switch *format {
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	case "text":
		return writeSLOText(w, out)
	default:
		return fmt.Errorf("unknown format %q (want text or json)", *format)
	}
}

func summarizePerScheme(byScheme map[string][]float64) map[string]telemetry.Summary {
	if len(byScheme) == 0 {
		return nil
	}
	out := make(map[string]telemetry.Summary, len(byScheme))
	for scheme, samples := range byScheme {
		out[scheme] = telemetry.Summarize(samples)
	}
	return out
}

func writeSLOText(w io.Writer, out sloOutput) error {
	warnDropped(w, out.DroppedEvents)
	writeTable := func(title string, overall telemetry.Summary, perScheme map[string]telemetry.Summary) error {
		fmt.Fprintf(w, "%s (%s -> seconds): %d samples\n", title, out.Unit, overall.Samples)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "scheme\tsamples\tmean\tp50\tp95\tp99\tmax")
		row := func(name string, s telemetry.Summary) {
			fmt.Fprintf(tw, "%s\t%d\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\n",
				name, s.Samples, s.Mean, s.P50, s.P95, s.P99, s.Max)
		}
		row("(all)", overall)
		names := make([]string, 0, len(perScheme))
		for name := range perScheme {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			row(name, perScheme[name])
		}
		return tw.Flush()
	}
	if err := writeTable("establishment latency", out.Establishment, out.EstablishmentPerScheme); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := writeTable("service disruption", out.Disruption, out.DisruptionPerScheme); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nobjectives:")
	for _, res := range out.Objectives {
		fmt.Fprintf(w, "  %s\n", res)
	}
	verdict := "PASS"
	if !out.Pass {
		verdict = "FAIL"
	}
	_, err := fmt.Fprintf(w, "overall: %s\n", verdict)
	return err
}
