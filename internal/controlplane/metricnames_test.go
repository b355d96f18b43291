package controlplane_test

import (
	"bytes"
	"io"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/telemetry"
	"github.com/rtcl/drtp/internal/transport"
)

// TestMetricFamilyNames puts every metric producer on one registry — the
// routers and the coordinator (through Deploy), a MetricsSink and a
// StreamSink behind the shared tracer, and the runtime sampler — drives
// one connection through its lifecycle, and checks each family the
// exposition lists: snake_case names, counters ending in _total, and
// latency histograms ending in _seconds.
func TestMetricFamilyNames(t *testing.T) {
	reg := telemetry.NewRegistry()
	stream := telemetry.NewStreamSink(io.Discard, reg)
	// Cleanups run last-registered first: the deployment stops emitting
	// before the stream closes.
	t.Cleanup(func() { _ = stream.Close() })
	t.Cleanup(telemetry.StartRuntimeSampler(reg, 10*time.Millisecond))

	g := trident(t)
	cfg := deployConfig(g, telemetry.NewRing(1<<12))
	cfg.Telemetry = telemetry.NewTracer(telemetry.NewMetricsSink(reg), stream)
	cfg.Metrics = reg
	d := deploy(t, cfg, transport.NewMem())
	if reply, err := d.Node(0).Agent.Request(1, 1); err != nil || !reply.OK {
		t.Fatalf("establish: %v %+v", err, reply)
	}
	if _, err := d.Node(0).Agent.ReleaseConn(1); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	snake := regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	kinds := make(map[string]int)
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != "#" || f[1] != "TYPE" {
			continue
		}
		name, kind := f[2], f[3]
		kinds[kind]++
		if !snake.MatchString(name) {
			t.Errorf("%s: not snake_case", name)
		}
		switch kind {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				t.Errorf("counter %s does not end in _total", name)
			}
		case "histogram":
			if !strings.HasSuffix(name, "_seconds") {
				t.Errorf("latency histogram %s does not end in _seconds", name)
			}
		}
	}
	for _, kind := range []string{"counter", "gauge", "histogram"} {
		if kinds[kind] == 0 {
			t.Errorf("no %s family exposed; the check is vacuous:\n%s", kind, buf.String())
		}
	}
}
