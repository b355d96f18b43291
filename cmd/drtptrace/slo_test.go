package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/telemetry"
)

// sloEvents is a two-scheme trace: D-LSR establishes in 0.1 s and 0.2 s,
// P-LSR in 0.3 s, and a failure of link 3 at t=10 is recovered by a
// D-LSR switch 0.05 s later.
func sloEvents() []telemetry.Event {
	var evs []telemetry.Event
	for _, c := range []struct {
		scheme string
		conn   int64
		start  float64
		lat    float64
	}{{"D-LSR", 1, 1, 0.1}, {"D-LSR", 2, 2, 0.2}, {"P-LSR", 3, 3, 0.3}} {
		evs = append(evs,
			connEv(c.start, telemetry.EvConnRequest, c.scheme, c.conn, nil),
			connEv(c.start+c.lat, telemetry.EvConnEstablish, c.scheme, c.conn, nil))
	}
	return append(evs,
		telemetry.Event{T: 10, Kind: telemetry.EvLinkFail, Conn: -1, Node: 1, Link: 3, Hops: -1, N: 1},
		connEv(10.05, telemetry.EvBackupActivate, "D-LSR", 1, func(e *telemetry.Event) { e.Link = 3; e.Reason = "switch" }))
}

// sloJSON runs the slo subcommand with -format json and decodes the
// document by value, so added keys do not break the comparison.
func sloJSON(t *testing.T, args ...string) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := run(append([]string{"slo", "-format", "json"}, args...), &buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("decoding slo json: %v\n%s", err, buf.String())
	}
	return out
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestRunSLO(t *testing.T) {
	path := writeTrace(t, sloEvents())

	t.Run("text with default objectives", func(t *testing.T) {
		var buf bytes.Buffer
		if err := run([]string{"slo", path}, &buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		for _, want := range []string{
			"establishment latency (seconds -> seconds): 3 samples",
			"service disruption (seconds -> seconds): 1 samples",
			"establish-p95",
			"disruption-p99",
			"overall: PASS",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("missing %q in:\n%s", want, out)
			}
		}
	})

	t.Run("json with default objectives", func(t *testing.T) {
		out := sloJSON(t, path)
		if out["unit"] != "seconds" || out["pass"] != true {
			t.Errorf("unit=%v pass=%v", out["unit"], out["pass"])
		}
		est := out["establishment"].(map[string]any)
		for key, want := range map[string]float64{
			"samples": 3, "mean": 0.2, "p50": 0.2, "p95": 0.3, "p99": 0.3, "max": 0.3,
		} {
			if got, _ := est[key].(float64); !near(got, want) {
				t.Errorf("establishment %s = %v, want %v", key, est[key], want)
			}
		}
		perScheme := out["establishment_per_scheme"].(map[string]any)
		if got := perScheme["D-LSR"].(map[string]any)["samples"]; got != 2.0 {
			t.Errorf("D-LSR establishment samples = %v, want 2", got)
		}
		dis := out["disruption"].(map[string]any)
		if got, _ := dis["max"].(float64); dis["samples"] != 1.0 || !near(got, 0.05) {
			t.Errorf("disruption = %v, want one 0.05 s sample", dis)
		}
		objs := out["objectives"].([]any)
		if len(objs) != 2 {
			t.Fatalf("%d objectives, want the 2 defaults", len(objs))
		}
		for i, name := range []string{"establish-p95", "disruption-p99"} {
			o := objs[i].(map[string]any)
			if o["name"] != name || o["pass"] != true {
				t.Errorf("objective %d = %v, want passing %s", i, o, name)
			}
		}
	})

	t.Run("minutes scale by 60", func(t *testing.T) {
		sec := sloJSON(t, path)["establishment"].(map[string]any)
		mins := sloJSON(t, "-unit", "minutes", path)["establishment"].(map[string]any)
		for _, key := range []string{"mean", "p50", "p95", "max"} {
			if !near(mins[key].(float64), 60*sec[key].(float64)) {
				t.Errorf("%s: minutes %v, want 60 × %v", key, mins[key], sec[key])
			}
		}
	})

	t.Run("failing objective flips pass", func(t *testing.T) {
		out := sloJSON(t, "-slo", "establish:p50:100ms", "-slo", "disruption:p99:1s", path)
		if out["pass"] != false {
			t.Errorf("pass = %v with a violated objective", out["pass"])
		}
		objs := out["objectives"].([]any)
		if o := objs[0].(map[string]any); o["name"] != "establish-p50" || o["pass"] != false {
			t.Errorf("objective 0 = %v, want failing establish-p50", o)
		}
		if o := objs[1].(map[string]any); o["pass"] != true {
			t.Errorf("objective 1 = %v, want passing", o)
		}
		var buf bytes.Buffer
		if err := run([]string{"slo", "-slo", "establish:p50:100ms", path}, &buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "overall: FAIL") {
			t.Errorf("text verdict not FAIL:\n%s", buf.String())
		}
	})

	t.Run("bad arguments", func(t *testing.T) {
		for _, args := range [][]string{
			{"-slo", "establish:p95", path},
			{"-slo", "latency:p95:1s", path},
			{"-slo", "establish:q95:1s", path},
			{"-slo", "establish:p0:1s", path},
			{"-slo", "establish:p101:1s", path},
			{"-slo", "establish:p95:soon", path},
			{"-unit", "hours", path},
			{"-format", "yaml", path},
			{},
		} {
			if err := run(append([]string{"slo"}, args...), &bytes.Buffer{}); err == nil {
				t.Errorf("slo %v accepted", args)
			}
		}
	})
}

// gatedFile stalls every Write until gate closes, so a StreamSink's
// writer goroutine blocks and its queue overflows deterministically.
type gatedFile struct {
	*os.File
	entered, gate chan struct{}
	once          sync.Once
}

func (g *gatedFile) Write(p []byte) (int, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
	return g.File.Write(p)
}

// TestRunReportsDroppedEvents writes a trace through a StreamSink whose
// writer is stalled until exactly 100 events have dropped: the report
// and the slo verdict both carry the count, in JSON and as a warning
// line in text.
func TestRunReportsDroppedEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dropped.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	gf := &gatedFile{File: f, entered: make(chan struct{}), gate: make(chan struct{})}
	sink := telemetry.NewStreamSink(gf, nil)
	evs := sloEvents()
	sink.Record(evs[0])
	select {
	case <-gf.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("writer goroutine never reached the file")
	}
	for _, e := range evs[1:] {
		sink.Record(e)
	}
	for sink.Dropped() < 100 {
		sink.Record(telemetry.Event{T: 20, Kind: telemetry.EvLSUpdate, Conn: -1, Node: 0, Link: -1, Hops: -1, N: 1})
	}
	close(gf.gate)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	const warning = "warning: the trace writer dropped 100 events; this trace is incomplete"
	for _, args := range [][]string{{path}, {"slo", path}} {
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), warning) {
			t.Errorf("drtptrace %v: missing %q in:\n%s", args, warning, buf.String())
		}
	}
	var buf bytes.Buffer
	if err := run([]string{"-format", "json", path}, &buf); err != nil {
		t.Fatal(err)
	}
	var rep jsonOutput
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Report.Dropped != 100 {
		t.Errorf("report dropped_events = %d, want 100", rep.Report.Dropped)
	}
	if got := sloJSON(t, path)["dropped_events"]; got != 100.0 {
		t.Errorf("slo dropped_events = %v, want 100", got)
	}
	// A complete trace carries no dropped_events key at all.
	if _, ok := sloJSON(t, writeTrace(t, sloEvents()))["dropped_events"]; ok {
		t.Error("complete trace reports dropped_events")
	}
}
