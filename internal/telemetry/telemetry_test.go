package telemetry_test

import (
	"bytes"
	"net/http/httptest"
	"reflect"
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

// TestNilInstrumentsAreNoOps calls every exported method of each
// nil-safe instrument on a nil receiver, with zero-valued arguments: a
// method added without its nil guard panics here, and none may report an
// error.
func TestNilInstrumentsAreNoOps(t *testing.T) {
	for _, nilInst := range []any{
		(*telemetry.Tracer)(nil),
		(*telemetry.Registry)(nil),
		(*telemetry.Counter)(nil),
		(*telemetry.Gauge)(nil),
		(*telemetry.LatencyHist)(nil),
		(*telemetry.CounterVec)(nil),
		(*telemetry.GaugeVec)(nil),
		(*telemetry.LatencyVec)(nil),
	} {
		v := reflect.ValueOf(nilInst)
		if v.NumMethod() == 0 {
			t.Errorf("%s has no exported methods", v.Type())
		}
		for i := 0; i < v.NumMethod(); i++ {
			name := v.Type().String() + "." + v.Type().Method(i).Name
			m := v.Method(i)
			args := make([]reflect.Value, m.Type().NumIn())
			for a := range args {
				args[a] = reflect.Zero(m.Type().In(a))
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s on a nil receiver panics: %v", name, r)
					}
				}()
				call := m.Call
				if m.Type().IsVariadic() {
					call = m.CallSlice
				}
				for _, out := range call(args) {
					if err, ok := out.Interface().(error); ok && err != nil {
						t.Errorf("%s on a nil receiver returns %v", name, err)
					}
				}
			}()
		}
	}
	var tr *telemetry.Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
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
	srv := httptest.NewServer(telemetry.Handler(reg, nil))
	defer srv.Close()

	res := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	telemetry.Handler(reg, nil).ServeHTTP(res, req)
	if res.Code != 200 || !strings.Contains(res.Body.String(), "up_total 1") {
		t.Errorf("/metrics: code %d body %q", res.Code, res.Body.String())
	}
	if ct := res.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}

	res = httptest.NewRecorder()
	telemetry.Handler(reg, nil).ServeHTTP(res, httptest.NewRequest("GET", "/healthz", nil))
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
