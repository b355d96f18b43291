package telemetry_test

import (
	"bytes"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/telemetry"
)

// TestRegistryConcurrency hammers one counter family, one gauge and one
// histogram from GOMAXPROCS goroutines and asserts the totals are exact
// (run under -race in CI).
func TestRegistryConcurrency(t *testing.T) {
	reg := telemetry.NewRegistry()
	cv := reg.CounterVec("test_ops_total", "ops", "worker")
	shared := reg.Counter("test_shared_total", "shared")
	g := reg.Gauge("test_inflight", "inflight")
	h := reg.Latency("test_latency_seconds", "latency")

	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := cv.With(string(rune('a' + w%8)))
			for i := 0; i < perWorker; i++ {
				mine.Inc()
				shared.Add(2)
				g.Add(1)
				g.Add(-1)
				h.Observe(time.Duration(i % 128))
			}
		}(w)
	}
	wg.Wait()

	total := int64(workers) * perWorker
	if got := shared.Value(); got != 2*total {
		t.Errorf("shared counter = %d, want %d", got, 2*total)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != total {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
	var perLabel int64
	for w := 0; w < 8 && w < workers; w++ {
		perLabel += cv.With(string(rune('a' + w))).Value()
	}
	if perLabel != total {
		t.Errorf("summed labeled counters = %d, want %d", perLabel, total)
	}
}

// TestTracerConcurrency emits from many goroutines into ring + metrics
// sinks and asserts exact totals survive.
func TestTracerConcurrency(t *testing.T) {
	reg := telemetry.NewRegistry()
	ring := telemetry.NewRing(1 << 20)
	tr := telemetry.NewTracer(ring, telemetry.NewMetricsSink(reg))

	workers := runtime.GOMAXPROCS(0)
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.ConnEstablish("D-LSR", 0, int64(w*perWorker+i), 3)
				tr.CDPForward("BF", 0, int64(i), 5)
			}
		}(w)
	}
	wg.Wait()

	total := int64(workers) * perWorker
	if got := ring.Count(telemetry.EvConnEstablish); got != total {
		t.Errorf("ring establishes = %d, want %d", got, total)
	}
	if got := ring.Count(telemetry.EvCDPForward); got != 5*total {
		t.Errorf("ring CDP forwards = %d, want %d", got, 5*total)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `drtp_events_total{kind="cdp-forward",scheme="BF"}`) {
		t.Errorf("missing aggregated family in:\n%s", buf.String())
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var tr *telemetry.Tracer
	tr.ConnRequest("x", 9, 1)
	tr.PrimarySetup("x", 9, 1, 2)
	tr.ConnEstablish("x", 9, 1, 2)
	tr.ConnReject("x", 9, 1, "no-route")
	tr.BackupRegister("x", 9, 1, 2, "")
	tr.BackupRelease("x", 9, 1, 1)
	tr.ConnTeardown("x", 9, 1)
	tr.LinkFail(0, 3)
	tr.BackupActivate("x", 9, 1, 3, "")
	tr.ActivationDenied("x", 9, 1, 3, "contention")
	tr.HopSignal(9, 1, 0, 3, "primary")
	tr.CDPForward("x", 9, 1, 7)
	tr.CDPDrop("x", 9, 1, 7, "detour")
	tr.LSUpdate(0, 4)
	tr.LinkState("x", 3, 1, 2, 3)
	tr.Emit(telemetry.Event{Kind: telemetry.EvLinkFail})
	tr.SetClock(nil)
	tr.SetNode(5)
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var reg *telemetry.Registry
	reg.Counter("a_total", "").Inc()
	reg.Gauge("b", "").Set(3)
	reg.Latency("c_seconds", "").Observe(1)
	reg.CounterVec("d_total", "", "l").With("v").Add(2)
	reg.GaugeVec("e", "", "l").With("v").Add(2)
	reg.LatencyVec("f_seconds", "", "l").With("v").Observe(2)
	if err := reg.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestRingWraparound(t *testing.T) {
	r := telemetry.NewRing(3)
	tr := telemetry.NewTracer(r)
	for i := 0; i < 5; i++ {
		tr.Emit(telemetry.Event{Kind: telemetry.EvLSUpdate, Conn: int64(i)})
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if want := int64(i + 2); e.Conn != want {
			t.Errorf("event %d conn = %d, want %d", i, e.Conn, want)
		}
	}
	if r.Total() != 5 {
		t.Errorf("total = %d, want 5", r.Total())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := telemetry.NewJSONL(&buf)
	tr := telemetry.NewTracer(sink)
	tr.SetClock(func() float64 { return 42.5 })
	tr.BackupActivate("D-LSR", 99, 7, 13, "")
	tr.ActivationDenied("D-LSR", 99, 8, 13, "contention")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("wrote %d lines, want 2:\n%s", got, buf.String())
	}

	evs, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("decoded %d events, want 2", len(evs))
	}
	e := evs[0]
	if e.Kind != telemetry.EvBackupActivate || e.Conn != 7 || e.Link != 13 ||
		e.T != 42.5 || e.Scheme != "D-LSR" || e.N != 1 || e.Trace != 99 {
		t.Errorf("event 0 = %+v", e)
	}
	if evs[1].Reason != "contention" {
		t.Errorf("event 1 = %+v", evs[1])
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("ops_total", "Operations.").Add(5)
	reg.GaugeVec("conns", "Connections.", "node").With("0").Set(2)
	h := reg.Latency("lat_seconds", "Latency.")
	h.Observe(time.Microsecond)
	h.Observe(500 * time.Millisecond)
	h.Observe(4 * time.Second)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP ops_total Operations.",
		"# TYPE ops_total counter",
		"ops_total 5",
		`conns{node="0"} 2`,
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="1.024e-06"} 1`,
		`lat_seconds_bucket{le="0.536870912"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 4.500001",
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramBucketBoundary pins the latency histogram's bucket edges:
// bucket b holds [2^(b-1), 2^b) ns and is exposed under the bound 2^b ns,
// so 1023 ns counts under le=1.024e-06 and exactly 1024 ns under the next
// bound; non-positive durations land in the zero bucket.
func TestHistogramBucketBoundary(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Latency("h_seconds", "")
	h.Observe(0)
	h.Observe(1023)
	h.Observe(1024)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`h_seconds_bucket{le="1e-09"} 1`,
		`h_seconds_bucket{le="1.024e-06"} 2`,
		`h_seconds_bucket{le="2.048e-06"} 3`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("boundary observation landed in the wrong bucket, missing %q:\n%s", want, buf.String())
		}
	}
}

func TestHandler(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("up_total", "").Inc()
	srv := httptest.NewServer(telemetry.Handler(reg))
	defer srv.Close()

	res := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	telemetry.Handler(reg).ServeHTTP(res, req)
	if res.Code != 200 || !strings.Contains(res.Body.String(), "up_total 1") {
		t.Errorf("/metrics: code %d body %q", res.Code, res.Body.String())
	}
	if ct := res.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}

	res = httptest.NewRecorder()
	telemetry.Handler(reg).ServeHTTP(res, httptest.NewRequest("GET", "/healthz", nil))
	if res.Code != 200 || strings.TrimSpace(res.Body.String()) != "ok" {
		t.Errorf("/healthz: code %d body %q", res.Code, res.Body.String())
	}
}

func TestParseEventKind(t *testing.T) {
	for _, k := range []telemetry.EventKind{
		telemetry.EvConnEstablish, telemetry.EvConnReject,
		telemetry.EvBackupRegister, telemetry.EvBackupRelease,
		telemetry.EvLinkFail, telemetry.EvBackupActivate,
		telemetry.EvActivationDenied, telemetry.EvCDPForward,
		telemetry.EvCDPDrop, telemetry.EvLSUpdate,
		telemetry.EvConnRequest, telemetry.EvPrimarySetup,
		telemetry.EvConnTeardown, telemetry.EvHopSignal,
		telemetry.EvLinkState,
	} {
		got, ok := telemetry.ParseEventKind(k.String())
		if !ok || got != k {
			t.Errorf("round trip of %v failed (got %v, %v)", k, got, ok)
		}
	}
	if _, ok := telemetry.ParseEventKind("bogus"); ok {
		t.Error("parsed bogus kind")
	}
}
