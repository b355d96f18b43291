package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json compare needs: which
// workloads and end-to-end metrics exist, and each metric's bound.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

func readJSON(path string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// worseBy is how much of the parent's median the change lost, in the
// metric's bad direction; negative when the change is better.
func worseBy(d metricDef, parent, change float64) float64 {
	if parent == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (parent - change) / parent
	}
	return (change - parent) / parent
}

// allBetter reports whether every run of the change reads better than
// every run of the parent.
func allBetter(d metricDef, parent, change []float64) bool {
	if len(parent) == 0 || len(change) == 0 {
		return false
	}
	p, c := sortedCopy(parent), sortedCopy(change)
	if d.Better == "higher" {
		return c[0] > p[len(p)-1]
	}
	return c[len(c)-1] < p[0]
}

// verdict judges one (metric, workload) pair.
func verdict(d metricDef, parent, change []float64) string {
	mp, mc := median(parent), median(change)
	worse := worseBy(d, mp, mc)
	// A pair whose own runs disagree by more than the bound cannot show
	// a change of that size either way.
	if max(spread(parent), spread(change)) > d.Bound {
		if allBetter(d, parent, change) {
			return "better"
		}
		return "unresolved"
	}
	if worse > d.Bound && !(d.Name == "setup_s" && mc-mp <= setupSlackSeconds) {
		return "REGRESSION"
	}
	if worse < -d.Bound {
		return "better"
	}
	return "ok"
}

// compareMain implements `bench compare parent.json change.json`: one
// row per (metric, workload), judged by BENCHMARK.json's bounds. It
// returns 1 when a metric regressed or more operations failed.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "the benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-benchmark BENCHMARK.json] parent.json change.json")
		return 2
	}
	var def benchmarkFile
	var parent, change resultFile
	for _, f := range []struct {
		path string
		into any
	}{{*benchPath, &def}, {fs.Arg(0), &parent}, {fs.Arg(1), &change}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
			return 2
		}
	}
	return compare(out, def, &parent, &change)
}

func compare(out io.Writer, def benchmarkFile, parent, change *resultFile) int {
	sameInputs := parent.Meta.Seed == change.Meta.Seed && parent.Meta.Smoke == change.Meta.Smoke
	fmt.Fprintf(out, "parent %s seed=%d (%s, %d CPU)\nchange %s seed=%d (%s, %d CPU)\n\n",
		parent.Meta.Commit, parent.Meta.Seed, parent.Meta.GoVersion, parent.Meta.NumCPU,
		change.Meta.Commit, change.Meta.Seed, change.Meta.GoVersion, change.Meta.NumCPU)
	fmt.Fprintf(out, "%-18s %-12s %13s %13s %8s %7s %6s  %s\n", "metric", "workload", "parent", "change", "worse", "spread", "bound", "verdict")
	code := 0
	for _, d := range def.EndToEnd {
		for _, w := range def.Workloads {
			pw, cw := parent.Workloads[w.Name], change.Workloads[w.Name]
			if pw == nil || cw == nil || len(pw.Runs) == 0 || len(cw.Runs) == 0 {
				fmt.Fprintf(out, "%-18s %-12s missing from a result file\n", d.Name, w.Name)
				code = 1
				continue
			}
			p, c := pw.series(d.Name), cw.series(d.Name)
			v := verdict(d, p, c)
			// The simulator is deterministic: at one seed any drop in the
			// accepted share is a changed admission decision, not noise.
			if d.Name == "accepted_share" && sameInputs && median(c) < median(p) {
				v = "REGRESSION"
			}
			if v == "REGRESSION" {
				code = 1
			}
			fmt.Fprintf(out, "%-18s %-12s %13.6g %13.6g %+7.2f%% %6.2f%% %5.0f%%  %s\n", d.Name, w.Name,
				median(p), median(c), 100*worseBy(d, median(p), median(c)), 100*max(spread(p), spread(c)), 100*d.Bound, v)
		}
	}
	fmt.Fprintln(out)
	for _, w := range def.Workloads {
		pw, cw := parent.Workloads[w.Name], change.Workloads[w.Name]
		if pw == nil || cw == nil {
			continue
		}
		if cw.Failed > pw.Failed {
			fmt.Fprintf(out, "%s: %d operations failed, %d at the parent\n", w.Name, cw.Failed, pw.Failed)
			code = 1
		}
		if sameInputs && pw.Digest != cw.Digest {
			fmt.Fprintf(out, "%s: sim_digest %s -> %s: the simulated statistics changed\n", w.Name, pw.Digest, cw.Digest)
		}
	}
	if code == 0 {
		fmt.Fprintln(out, "no regression")
	}
	return code
}
