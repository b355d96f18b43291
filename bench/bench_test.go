package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/flood"
	"github.com/rtcl/drtp/internal/sim"
	"github.com/rtcl/drtp/internal/telemetry"
)

// TestMain lets the test binary stand in for the benchmark when runChild
// starts it as a child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(benchMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		in   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.99, 7},
		{ten, 0.50, 5},
		{ten, 0.90, 9},
		{ten, 0.91, 10},
		{ten, 0.99, 10},
		{ten, 1, 10},
		{[]float64{1, 2}, 0.5, 1},
		{[]float64{1, 2, 3}, 0.5, 2},
	} {
		if got := percentile(c.in, c.q); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.in, c.q, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(v, n=4) returns, the pipeline's spread measure.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100] holds a [10,40] and b [40,70], adjacent; b holds c
	// [45,55], nested; d [200,230] is a second root.
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "b", start: 40, end: 70, parent: 0},
		{name: "c", start: 45, end: 55, parent: 2},
		{name: "d", start: 200, end: 230, parent: -1},
	}
	want := []int64{40, 30, 20, 10, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	agg := aggregate(spans)
	if s := selfSeconds(agg, "a", "b") * 1e9; s != 50 {
		t.Errorf("selfSeconds(a,b) = %v ns, want 50", s)
	}
	if p := pct(agg, "b", 0.5, 1); p != 30 {
		t.Errorf("pct(b) = %v, want its duration 30", p)
	}
}

func TestRecorderParents(t *testing.T) {
	r := newRecorder(time.Now())
	outer := r.begin("outer", 7)
	inner := r.begin("inner", 7)
	r.end(inner)
	next := r.begin("next", 7)
	r.end(next)
	r.end(outer)
	after := r.begin("after", -1)
	r.end(after)
	for i, want := range []int32{-1, 0, 0, -1} {
		if got := r.spans[i].parent; got != want {
			t.Errorf("parent of %s = %d, want %d", r.spans[i].name, got, want)
		}
	}
	for _, s := range r.spans {
		if s.end < s.start {
			t.Errorf("span %s ends before it starts", s.name)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndUnits(t *testing.T) {
	seen := make(map[string]bool)
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) == 0 || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check("metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps the pipeline's definition and the
// program's tables in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	var def struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Paths) != 1 || def.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", def.Paths)
	}
	if def.RunSeconds < 1 || def.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", def.RunSeconds)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.name || def.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q / %q", i, def.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, file, table []metricDef) {
		if len(file) != len(table) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(file), kind, len(table))
		}
		for i := range table {
			if file[i] != table[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, file[i], table[i])
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
}

// TestDecoratorForwardsCapabilities: the wrapper has an optional
// capability exactly when the scheme it wraps has it.
func TestDecoratorForwardsCapabilities(t *testing.T) {
	for _, spec := range []schemeSpec{specDLSR, specPLSR, specBF, specNoBackup} {
		inner := spec.build()
		wrapped := traceScheme(inner, newRecorder(time.Now()), spec.spanName)
		if wrapped.Name() != spec.name {
			t.Errorf("%s: wrapper is named %q", spec.name, wrapped.Name())
		}
		_, innerBR := inner.(drtp.BackupRouter)
		_, wrapBR := wrapped.(drtp.BackupRouter)
		_, innerTr := inner.(interface{ SetTracer(*telemetry.Tracer) })
		_, wrapTr := wrapped.(interface{ SetTracer(*telemetry.Tracer) })
		_, innerSt := inner.(interface{ Stats() flood.Stats })
		_, wrapSt := wrapped.(interface{ Stats() flood.Stats })
		if innerBR != wrapBR || innerTr != wrapTr || innerSt != wrapSt {
			t.Errorf("%s: capabilities (BackupRouter, SetTracer, Stats) inner %v/%v/%v, wrapper %v/%v/%v",
				spec.name, innerBR, innerTr, innerSt, wrapBR, wrapTr, wrapSt)
		}
	}
}

// TestTracedReplayMatchesSimRun: with probes running, the replay's
// accepted / rejected / affected / recovered / switched / dropped /
// re-established counts equal sim.Run's for every scheme, on a workload
// with failure sweeps and on one with destructive failures.
func TestTracedReplayMatchesSimRun(t *testing.T) {
	for _, size := range []simSize{paperSweepSize(true), scale2kSize(true)} {
		in, _, err := generate(size, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range in.cells {
			want := referenceStats(t, in, c)
			net, err := in.newNetwork()
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder(time.Now())
			probes := newProber()
			got, err := replay(net, traceScheme(c.spec.build(), rec, c.spec.spanName), c.scen, in.config(c), rec,
				size.probeEvery, func(conn *drtp.Connection) { probes.run(net, conn) })
			if err != nil {
				t.Fatalf("%s: %v", c.label, err)
			}
			if got != want {
				t.Errorf("%s:\n replay  %+v\n sim.Run %+v", c.label, got, want)
			}
			if want.accepted == 0 || len(probes.ns["lsdb.snapshot"]) == 0 {
				t.Errorf("%s: accepted %d, %d probe samples: the cell exercises nothing", c.label, want.accepted, len(probes.ns["lsdb.snapshot"]))
			}
		}
	}
}

func referenceStats(t *testing.T, in *simInputs, c simCell) replayStats {
	t.Helper()
	net, err := in.newNetwork()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(net, c.spec.build(), c.scen, in.config(c))
	if err != nil {
		t.Fatal(err)
	}
	return statsOfRun(res)
}

// TestNaiveWrapperIsCaught shows the comparison has teeth: a wrapper
// that hides drtp.BackupRouter stops re-protection after a switch, and
// the replay's counts then differ from sim.Run's.
func TestNaiveWrapperIsCaught(t *testing.T) {
	in, _, err := generate(scale2kSize(true), 3)
	if err != nil {
		t.Fatal(err)
	}
	c := in.cells[0]
	want := referenceStats(t, in, c)
	if want.reestab == 0 {
		t.Fatal("the smoke workload re-established no backup: it cannot tell the wrappers apart")
	}
	net, err := in.newNetwork()
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(time.Now())
	naive := &tracedScheme{inner: c.spec.build(), rec: rec, span: c.spec.spanName}
	got, err := replay(net, naive, c.scen, in.config(c), rec, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got == want {
		t.Error("a wrapper without RouteBackupsFor reproduced sim.Run's counts")
	}
}

// TestSimDigestFollowsSeed: the same seed gives the same digest twice, a
// different seed a different one.
func TestSimDigestFollowsSeed(t *testing.T) {
	digest := func(seed int64) string {
		res, err := runSimUntraced(paperSweepSize(true), runOpts{seed: seed, smoke: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.digest
	}
	a, again, b := digest(1), digest(1), digest(2)
	if a != again {
		t.Errorf("seed 1 gave %s, then %s", a, again)
	}
	if a == b {
		t.Errorf("seeds 1 and 2 both gave %s", a)
	}
}

// TestSmokeAllWorkloads runs the whole benchmark at smoke size the way
// `go run ./bench` does, then feeds the result file to compare.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if code := benchMain([]string{"-smoke", "-seconds", "0.1", "-reps", "2", "-out", dir}, &out); code != 0 {
		t.Fatalf("bench -smoke exited %d:\n%s", code, out.String())
	}
	files, _ := filepath.Glob(filepath.Join(dir, "result-*.json"))
	if len(files) != 1 {
		t.Fatalf("result files: %v", files)
	}
	var file resultFile
	if err := readJSON(files[0], &file); err != nil {
		t.Fatal(err)
	}
	if file.Meta.GoVersion == "" || file.Meta.NumCPU == 0 || file.Meta.GOMAXPROCS == 0 || file.Meta.Commit == "" || file.Meta.Seed != 1 {
		t.Errorf("result file meta incomplete: %+v", file.Meta)
	}
	for _, w := range workloads {
		wr := file.Workloads[w.name]
		if wr == nil || len(wr.Runs) != 2 || wr.Traced == nil {
			t.Fatalf("%s: incomplete result %+v", w.name, wr)
		}
		for _, d := range endToEnd {
			for i, run := range wr.Runs {
				if v, ok := run[d.Name]; !ok || v <= 0 {
					t.Errorf("%s run %d: %s = %v, want a positive number", w.name, i, d.Name, v)
				}
			}
			if !strings.Contains(out.String(), d.Name) {
				t.Errorf("output never prints %s", d.Name)
			}
		}
		for _, d := range perLayer {
			if _, ok := wr.Traced[d.Name]; !ok {
				t.Errorf("%s traced: %s missing", w.name, d.Name)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "spans-"+w.name+".jsonl")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
	// Each layer is entered by at least one workload.
	for _, d := range perLayer {
		entered := false
		for _, w := range workloads {
			entered = entered || file.Workloads[w.name].Traced[d.Name] != 0
		}
		if !entered {
			t.Errorf("per-layer metric %s reads 0 on every workload", d.Name)
		}
	}

	bench := filepath.Join("..", "BENCHMARK.json")
	out.Reset()
	if code := compareMain([]string{"-benchmark", bench, files[0], files[0]}, &out); code != 0 {
		t.Errorf("compare of a result with itself exited %d:\n%s", code, out.String())
	}
	// Halve the throughput of one workload: a regression. (Smoke runs are
	// too short to be steady, so the parent's values are pinned too.)
	write := func(name string, perSecond float64) string {
		for _, run := range file.Workloads["scale_2k"].Runs {
			run["establish_per_s"] = perSecond
		}
		path := filepath.Join(dir, name)
		if err := writeResultFile(path, &file); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady, slow := write("steady.json", 1000), write("slow.json", 500)
	out.Reset()
	if code := compareMain([]string{"-benchmark", bench, steady, slow}, &out); code != 1 {
		t.Errorf("compare against a halved establish_per_s exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("compare did not mark the regression:\n%s", out.String())
	}
}

// TestResultLine: with -workload the last line of output is the one JSON
// object the pipeline parses, with exactly its four keys and exactly the
// end-to-end (or, traced, the per-layer) metrics.
func TestResultLine(t *testing.T) {
	for _, c := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out bytes.Buffer
		args := []string{"--workload", "cp_mem", "--seed", "4", "--seconds", "0.1", "--trace", c.trace, "-smoke", "-out", t.TempDir()}
		if code := benchMain(args, &out); code != 0 {
			t.Fatalf("exit %d:\n%s", code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
		}
		if len(line) != 4 {
			t.Errorf("result line has keys %v", line)
		}
		var res struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]metricValue
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("result %+v", res)
		}
		if len(res.Metrics) != len(c.defs) {
			t.Errorf("trace %s: %d metrics, want %d", c.trace, len(res.Metrics), len(c.defs))
		}
		for _, d := range c.defs {
			if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", c.trace, d.Name, v, d.Unit)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	rate := metricDef{Name: "establish_per_s", Better: "higher", Bound: 0.10}
	lat := metricDef{Name: "establish_p50_us", Better: "lower", Bound: 0.10}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}
	for _, c := range []struct {
		name           string
		d              metricDef
		parent, change []float64
		want           string
	}{
		{"flat", rate, []float64{100, 101, 99}, []float64{100, 100, 101}, "ok"},
		{"slower within the bound", rate, []float64{100, 101, 99}, []float64{93, 94, 92}, "ok"},
		{"slower beyond the bound", rate, []float64{100, 101, 99}, []float64{80, 81, 79}, "REGRESSION"},
		{"faster", rate, []float64{100, 101, 99}, []float64{130, 131, 129}, "better"},
		{"latency up", lat, []float64{500, 505, 495}, []float64{600, 605, 595}, "REGRESSION"},
		{"latency down", lat, []float64{500, 505, 495}, []float64{400, 405, 395}, "better"},
		{"noisy parent", rate, []float64{100, 140, 70, 120}, []float64{95, 96, 94, 95}, "unresolved"},
		{"noisy but every run better", rate, []float64{100, 140, 70, 120}, []float64{150, 151, 152, 153}, "better"},
		{"set-up worse by a few ms", setup, []float64{0.010, 0.011, 0.010}, []float64{0.020, 0.021, 0.020}, "ok"},
		{"set-up worse by seconds", setup, []float64{1.0, 1.1, 1.0}, []float64{2.0, 2.1, 2.0}, "REGRESSION"},
	} {
		if got := verdict(c.d, c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
