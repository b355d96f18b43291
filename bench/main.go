// Command bench is the repository's performance ledger: four workloads
// over the simulator and the control plane, seven end-to-end metrics
// measured with tracing off, and a per-layer account from a separate
// traced run. README.md in this directory explains every number.
//
// Usage:
//
//	go run ./bench                       every workload, untraced then traced
//	go run ./bench -workload cp_tcp -trace 0   one run, one JSON result line
//	go run ./bench compare old.json new.json   apply BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// runOpts are the knobs of one run of one workload.
type runOpts struct {
	// workload names the span file.
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// why says which layers the workload stresses; BENCHMARK.json and
	// README.md repeat it.
	why string
	run func(o runOpts) (*runResult, error)
}

var workloads = []workload{
	{
		name: "paper_sweep",
		why:  "Paper-scale 60-node sweep, 4 schemes x UT/NT x 6 lambdas: dense CV/APLV forms, failure sweeps ~40% of host time, the only workload that runs flood; a Dijkstra speed-up should move it little",
		run:  func(o runOpts) (*runResult, error) { return runSim(paperSweepSize(o.smoke), o) },
	},
	{
		name: "scale_2k",
		why:  "2000-node network, D-LSR and P-LSR with destructive failures: Scheme.Route is >85% of host time, sparse CV/APLV forms, no sweeps and no flood; the mirror image of paper_sweep",
		run:  func(o runOpts) (*runResult, error) { return runSim(scale2kSize(o.smoke), o) },
	},
	{
		name: "cp_tcp",
		why:  "Control plane on 12 nodes over loopback TCP, 2 closed-loop clients doing request then release: wire codec, sockets and goroutine hand-offs dominate, routing is negligible",
		run:  func(o runOpts) (*runResult, error) { return runCP(true, o) },
	},
	{
		name: "cp_mem",
		why:  "cp_tcp over the in-memory transport: same router and coordinator code with no sockets and no byte encoding, so a wire or transport gain must show on cp_tcp and not here",
		run:  func(o runOpts) (*runResult, error) { return runCP(false, o) },
	},
}

func runSim(size simSize, o runOpts) (*runResult, error) {
	if o.trace {
		return runSimTraced(size, o)
	}
	return runSimUntraced(size, o)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload and print one JSON result line (default: run them all)")
	seed := fs.Int64("seed", 1, "seed of the generated scenario, failure schedule and request order")
	seconds := fs.Float64("seconds", 15, "seconds of measured work per run")
	trace := fs.Int("trace", 0, "with -workload: 1 runs the traced variant and reports the per-layer metrics")
	reps := fs.Int("reps", 3, "without -workload: untraced runs per workload")
	smoke := fs.Bool("smoke", false, "tiny sizes: checks the harness, measures nothing")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for span files and the result file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := runOpts{seed: *seed, seconds: *seconds, smoke: *smoke, outDir: *outDir}

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		o.trace, o.workload = *trace != 0, w.name
		res, err := w.run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printRun(out, w.name, o, res)
		printResultLine(out, res)
		if res.failed > 0 {
			return 1
		}
		return 0
	}
	return runAll(out, o, *reps)
}

// printRun prints every metric of a run by name with its unit.
func printRun(out io.Writer, name string, o runOpts, res *runResult) {
	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	fmt.Fprintf(out, "== %s  %s  seed=%d  sim_digest=%s\n", name, mode, o.seed, res.digest)
	for _, n := range res.notes {
		fmt.Fprintf(out, "   %s\n", n)
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.metrics[n]
		fmt.Fprintf(out, "   %-34s %14.6g %s\n", n, v.Value, v.Unit)
	}
}

// resultLine is the one-line result the pipeline parses.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResultLine prints the result line; it must stay the last line of
// standard output.
func printResultLine(out io.Writer, res *runResult) {
	line, err := json.Marshal(resultLine{res.failed == 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(out, "%s\n", line)
}

// resultFile is what `bench` writes and `bench compare` reads.
type resultFile struct {
	Meta      resultMeta                 `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// resultMeta records where and how the numbers were taken.
type resultMeta struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Time       string  `json:"time"`
}

type workloadResult struct {
	Digest string `json:"sim_digest"`
	Failed int64  `json:"failed"`
	// Runs holds the end-to-end metrics of each untraced repetition;
	// Traced the per-layer metrics of the one traced run.
	Runs   []map[string]float64 `json:"runs"`
	Traced map[string]float64   `json:"traced"`
}

// commit returns the revision the binary was built from, when the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func values(m map[string]metricValue) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v.Value
	}
	return out
}

// runAll runs every workload reps times untraced and once traced,
// prints every metric, and writes the result file compare reads.
func runAll(out io.Writer, o runOpts, reps int) int {
	file := resultFile{
		Meta: resultMeta{
			Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke,
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			GoVersion: runtime.Version(), Commit: commit(),
			Time: time.Now().UTC().Format(time.RFC3339),
		},
		Workloads: make(map[string]*workloadResult),
	}
	fmt.Fprintf(out, "bench: seed=%d seconds=%g reps=%d GOMAXPROCS=%d NumCPU=%d %s commit=%s\n",
		o.seed, o.seconds, reps, file.Meta.GOMAXPROCS, file.Meta.NumCPU, file.Meta.GoVersion, file.Meta.Commit)
	code := 0
	for _, w := range workloads {
		wr := &workloadResult{}
		file.Workloads[w.name] = wr
		for rep := 0; rep <= reps; rep++ {
			ro := o
			ro.workload = w.name
			ro.trace = rep == reps // the traced run comes last
			res, err := runChild(out, ro)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			wr.Failed += res.failed
			if res.failed > 0 {
				code = 1
			}
			if ro.trace {
				wr.Traced = values(res.metrics)
				continue
			}
			if wr.Digest != "" && wr.Digest != res.digest {
				fmt.Fprintf(os.Stderr, "bench: %s: sim_digest %s differs from the previous run's %s at the same seed\n", w.name, res.digest, wr.Digest)
				code = 1
			}
			wr.Digest = res.digest
			wr.Runs = append(wr.Runs, values(res.metrics))
		}
	}
	printSummary(out, &file)
	path := filepath.Join(o.outDir, "result-"+strings.NewReplacer(":", "", "-", "").Replace(file.Meta.Time)+".json")
	if err := writeResultFile(path, &file); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "result file: %s\n", path)
	return code
}

// childEnv marks a child process of runChild. main ignores it; the test
// binary's TestMain uses it to act as the benchmark.
const childEnv = "DRTP_BENCH_CHILD"

// runChild performs one run in a child process, with the arguments the
// pipeline would pass, and relays what it prints. Every run so starts
// from a fresh heap and scheduler, as the pipeline's runs do: a finished
// control-plane run leaves about 2 MB of dead goroutine descriptors
// behind, which the next run's heap reading would otherwise include.
func runChild(out io.Writer, o runOpts) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	args := []string{
		"-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", trace, "-out", o.outDir,
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child run: %w", err)
	}
	// The child prints its metrics, then the result line.
	text := strings.TrimRight(string(stdout), "\n")
	cut := strings.LastIndexByte(text, '\n')
	fmt.Fprintln(out, text[:max(cut, 0)])
	var line resultLine
	if err := json.Unmarshal([]byte(text[cut+1:]), &line); err != nil {
		return nil, fmt.Errorf("child run: result line: %w", err)
	}
	res := &runResult{attempted: line.Attempted, failed: line.Failed, metrics: line.Metrics, digest: "-"}
	if _, after, ok := strings.Cut(text, "sim_digest="); ok {
		res.digest, _, _ = strings.Cut(after, "\n")
	}
	return res, nil
}

// printSummary prints the median and the run-to-run spread of every
// end-to-end metric on every workload.
func printSummary(out io.Writer, file *resultFile) {
	fmt.Fprintf(out, "\n%-18s %-12s %14s %-6s %8s %6s\n", "metric", "workload", "median", "unit", "spread", "bound")
	for _, d := range endToEnd {
		for _, w := range workloads {
			v := file.Workloads[w.name].series(d.Name)
			fmt.Fprintf(out, "%-18s %-12s %14.6g %-6s %7.2f%% %5.0f%%\n", d.Name, w.name, median(v), d.Unit, 100*spread(v), 100*d.Bound)
		}
	}
}

// series returns one metric's value on every untraced run.
func (w *workloadResult) series(metric string) []float64 {
	v := make([]float64, 0, len(w.Runs))
	for _, r := range w.Runs {
		v = append(v, r[metric])
	}
	return v
}

func writeResultFile(path string, file *resultFile) error {
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
