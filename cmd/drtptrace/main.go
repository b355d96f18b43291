// Command drtptrace analyzes -trace JSONL files written by drtpsim or
// drtpnode: it reconstructs per-connection lifecycle spans and per-failure
// recovery spans, joins multi-process traces on their shared trace IDs,
// and emits the paper-aligned report — fault tolerance per scheme
// (P_act-bk), the service-disruption-time histogram (link-fail to
// backup-activate), the most failure-critical links, and spare-bandwidth/
// multiplexing occupancy over time.
//
// Usage:
//
//	drtpsim -exp fig4 -quick -trace events.jsonl
//	drtptrace events.jsonl
//	drtptrace -format json node0.jsonl node1.jsonl node2.jsonl
//	drtptrace -conn 7 events.jsonl      # one connection's timeline
//
// The "slo" subcommand evaluates latency objectives over a trace:
// establishment-latency (request -> active) and service-disruption
// percentiles per scheme, with pass/fail verdicts and error-budget burn.
//
//	drtptrace slo -unit minutes -slo disruption:p99:1s events.jsonl
//	drtptrace slo -format json node0.jsonl node1.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"

	"github.com/rtcl/drtp/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "drtptrace:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if len(args) > 0 && args[0] == "slo" {
		return runSLO(args[1:], w)
	}
	fs := flag.NewFlagSet("drtptrace", flag.ContinueOnError)
	var (
		format = fs.String("format", "text", "output format: text|json")
		top    = fs.Int("top", 10, "number of links in the criticality ranking")
		connID = fs.Int64("conn", -1, "dump one connection's timeline instead of the report")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no trace files given (usage: drtptrace [flags] trace.jsonl...)")
	}

	tr, err := readTrace(fs.Args())
	if err != nil {
		return err
	}
	if *connID >= 0 {
		return writeTimeline(w, tr, *connID)
	}
	rep := telemetry.BuildReport(tr)

	switch *format {
	case "json":
		return writeJSON(w, tr, rep)
	case "text":
		return writeText(w, tr, rep, *top)
	default:
		return fmt.Errorf("unknown format %q (want text or json)", *format)
	}
}

// readTrace reads and joins the JSONL trace files.
func readTrace(paths []string) (*telemetry.Trace, error) {
	var events []telemetry.Event
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		evs, err := telemetry.ReadJSONL(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		events = append(events, evs...)
	}
	return telemetry.BuildTrace(events), nil
}

// warnDropped prints one warning line when the trace writer dropped
// events, so a partial trace is never read as complete.
func warnDropped(w io.Writer, dropped int64) {
	if dropped > 0 {
		fmt.Fprintf(w, "warning: the trace writer dropped %d events; this trace is incomplete\n", dropped)
	}
}

// jsonOutput is the machine-readable report: the aggregate analysis plus
// one summary per reconstructed connection span.
type jsonOutput struct {
	Report *telemetry.Report     `json:"report"`
	Spans  []*telemetry.ConnSpan `json:"spans"`
}

func writeJSON(w io.Writer, tr *telemetry.Trace, rep *telemetry.Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonOutput{Report: rep, Spans: tr.Spans})
}

func writeText(w io.Writer, tr *telemetry.Trace, rep *telemetry.Report, top int) error {
	fmt.Fprintf(w, "trace: %d events, %d connections, %d link failures\n",
		rep.Events, rep.Conns, rep.Failures)
	warnDropped(w, rep.Dropped)
	fmt.Fprintln(w)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\trequests\testab\treject\tbackups\taffected\trecovered\tP_act-bk\tswitched\tdropped")
	for _, s := range rep.Schemes {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%.4f\t%d\t%d\n",
			s.Scheme, s.Requests, s.Established, s.Rejected, s.BackupOK,
			s.EvalAffected, s.EvalRecovered, s.FaultTolerance, s.Switched, s.Dropped)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	d := rep.Disruption
	fmt.Fprintf(w, "\nservice disruption (link-fail -> backup-activate): %d samples\n", d.Samples)
	if d.Samples > 0 {
		fmt.Fprintf(w, "  min=%.4g p50=%.4g p90=%.4g max=%.4g mean=%.4g\n",
			d.Min, d.P50, d.P90, d.Max, d.Mean)
		max := 0
		for _, b := range d.Buckets {
			if b.Count > max {
				max = b.Count
			}
		}
		for _, b := range d.Buckets {
			le := "+Inf"
			if !math.IsInf(b.Le, 1) {
				le = fmt.Sprintf("%g", b.Le)
			}
			bar := ""
			if max > 0 {
				bar = strings.Repeat("#", b.Count*40/max)
			}
			fmt.Fprintf(w, "  <= %-6s %6d %s\n", le, b.Count, bar)
		}
	}

	if len(rep.Links) > 0 {
		fmt.Fprintf(w, "\ntop failure-critical links (unrecovered connections when the link fails):\n")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "link\tcriticality\teval denied\teval recovered\tswitched\tdropped\tfailures")
		for i, l := range rep.Links {
			if i == top {
				break
			}
			fmt.Fprintf(tw, "L%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
				l.Link, l.Criticality(), l.EvalDenied, l.EvalRecovered,
				l.Switched, l.Dropped, l.Failures)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	if len(rep.Occupancy) > 0 {
		fmt.Fprintf(w, "\nspare occupancy (top multiplexed links per scheme):\n")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "scheme\tlink\tsamples\tavg prime\tavg spare\tmax spare\tmax mux")
		perScheme := map[string]int{}
		for _, o := range rep.Occupancy {
			if perScheme[o.Scheme] >= 5 {
				continue
			}
			perScheme[o.Scheme]++
			fmt.Fprintf(tw, "%s\tL%d\t%d\t%.1f\t%.1f\t%d\t%d\n",
				o.Scheme, o.Link, o.Samples, o.AvgPrime, o.AvgSpare, o.MaxSpare, o.MaxMux)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// writeTimeline prints every event of the connection's span(s), joined
// across files, in timeline order.
func writeTimeline(w io.Writer, tr *telemetry.Trace, conn int64) error {
	found := false
	for _, sp := range tr.Spans {
		if sp.Conn != conn {
			continue
		}
		found = true
		fmt.Fprintf(w, "conn %d scheme=%s trace=%d outcome=%s nodes=%v\n",
			sp.Conn, sp.Scheme, sp.Trace, sp.Outcome, sp.Nodes)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		for _, e := range sp.Events {
			detail := ""
			if e.Reason != "" {
				detail = " " + e.Reason
			}
			if e.Link >= 0 {
				detail += fmt.Sprintf(" link=L%d", e.Link)
			}
			if e.Hops >= 0 {
				detail += fmt.Sprintf(" hops=%d", e.Hops)
			}
			node := "-"
			if e.Node >= 0 {
				node = fmt.Sprint(e.Node)
			}
			fmt.Fprintf(tw, "  %.6f\tnode %s\t%s%s\n", e.T, node, e.Kind, detail)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	if !found {
		return fmt.Errorf("connection %d not found in trace", conn)
	}
	return nil
}
