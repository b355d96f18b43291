package main

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/telemetry"
)

// quickArgs shrinks every experiment run to seconds.
func quickArgs(extra ...string) []string {
	return append([]string{"-quick", "-duration", "80"}, extra...)
}

func TestRunTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := run(quickArgs("-exp", "table1"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 1") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestRunFig4(t *testing.T) {
	var buf bytes.Buffer
	if err := run(quickArgs("-exp", "fig4"), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 4", "D-LSR", "P-LSR", "BF"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRunFig5CSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run(quickArgs("-exp", "fig5", "-csv"), &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "pattern,scheme,lambda") {
		t.Fatalf("csv output:\n%s", buf.String())
	}
}

func TestRunOverheadExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(quickArgs("-exp", "overhead", "-lambda", "0.3"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CDP forwards") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestRunAblationExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(quickArgs("-exp", "ablation"), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"dedicated", "conflict-blind", "reactive"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRunMultiBackupExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(quickArgs("-exp", "multibackup"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Multiple backups") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestRunAvailabilityExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(quickArgs("-exp", "availability", "-lambda", "0.3"), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Availability") || !strings.Contains(out, "NoRecovery") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunScaleExperiment(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-exp", "scale", "-quick", "-scale-nodes", "60",
		"-scale-conns", "400", "-scale-failures", "2", "-workers", "4"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Scale:", "totP99", "SCALE_JSON ", `"establishments_per_sec"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestRunBadState: the APLV layout is chosen per link by lsdb, so there is
// no -state flag to set it.
func TestRunBadState(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-exp", "fig4", "-state", "dense"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("-state should be an unknown flag, got %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "nope"}, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestQuickLambdas(t *testing.T) {
	got := quickLambdas([]float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7})
	if len(got) != 3 || got[0] != 0.2 || got[2] != 0.7 {
		t.Fatalf("quickLambdas = %v", got)
	}
	short := quickLambdas([]float64{0.2, 0.3})
	if len(short) != 2 {
		t.Fatalf("short quickLambdas = %v", short)
	}
}

func TestRunReplay(t *testing.T) {
	// Generate a small scenario file, then replay it.
	sc, err := scenario.Generate(scenario.Config{
		Nodes: 20, Lambda: 0.2, Duration: 80, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/trace.jsonl"
	if err := sc.Save(path); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-exp", "replay", "-scenario", path, "-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Replay of", "D-LSR", "NoBackup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestRunReplayMissingFile(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "replay"}, &buf); err == nil {
		t.Fatal("replay without -scenario accepted")
	}
	if err := run([]string{"-exp", "replay", "-scenario", "/nonexistent"}, &buf); err == nil {
		t.Fatal("missing scenario file accepted")
	}
}

func TestRunAcceptanceExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(quickArgs("-exp", "acceptance"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "acceptance probability") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestRunFig4Plot(t *testing.T) {
	var buf bytes.Buffer
	if err := run(quickArgs("-exp", "fig4", "-plot"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "* D-LSR") {
		t.Fatalf("chart legend missing:\n%s", buf.String())
	}
}

func TestRunReplications(t *testing.T) {
	var buf bytes.Buffer
	if err := run(quickArgs("-exp", "fig4", "-reps", "2"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "±") || !strings.Contains(buf.String(), "2 replications") {
		t.Fatalf("replication output missing:\n%s", buf.String())
	}
}

// TestRunFig4TraceReconciliation runs fig4 with -trace and -metrics-summary
// and checks that the JSONL event stream reconciles exactly with the
// table: per scheme, backup-activate events are the P_act-bk numerator
// and activate + denied events its denominator.
func TestRunFig4TraceReconciliation(t *testing.T) {
	path := t.TempDir() + "/events.jsonl"
	var buf bytes.Buffer
	if err := run(quickArgs("-exp", "fig4", "-csv", "-trace", path, "-metrics-summary"), &buf); err != nil {
		t.Fatal(err)
	}

	// Sum affected/recovered per scheme from the CSV rows
	// (pattern,scheme,lambda,P_act-bk,affected,recovered,...).
	type tally struct{ affected, recovered int64 }
	want := map[string]*tally{}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		if len(f) < 6 {
			continue
		}
		affected, err1 := strconv.ParseInt(f[4], 10, 64)
		recovered, err2 := strconv.ParseInt(f[5], 10, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		w := want[f[1]]
		if w == nil {
			w = &tally{}
			want[f[1]] = w
		}
		w.affected += affected
		w.recovered += recovered
	}
	if len(want) != 3 {
		t.Fatalf("parsed %d schemes from CSV:\n%s", len(want), buf.String())
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := telemetry.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]*tally{}
	for _, e := range events {
		g := got[e.Scheme]
		if g == nil {
			g = &tally{}
			got[e.Scheme] = g
		}
		switch e.Kind {
		case telemetry.EvBackupActivate:
			g.affected++
			g.recovered++
		case telemetry.EvActivationDenied:
			g.affected++
		}
	}
	for scheme, w := range want {
		g := got[scheme]
		if g == nil {
			t.Fatalf("no events for scheme %s", scheme)
		}
		if g.recovered != w.recovered || g.affected != w.affected {
			t.Errorf("%s: events give %d/%d, table gives %d/%d",
				scheme, g.recovered, g.affected, w.recovered, w.affected)
		}
	}
	if !strings.Contains(buf.String(), "drtp_events_total") {
		t.Errorf("metrics summary missing from output:\n%s", buf.String())
	}
}
