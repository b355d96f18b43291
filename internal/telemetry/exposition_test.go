package telemetry_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/telemetry"
)

func exposition(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestExpositionLabelEscaping checks the text-format escaping of label
// values: backslashes, double quotes and newlines must be escaped, and
// untouched values must round-trip verbatim.
func TestExpositionLabelEscaping(t *testing.T) {
	reg := telemetry.NewRegistry()
	cv := reg.CounterVec("test_escape_total", "escaping", "path")
	cv.With(`C:\drtp "trace"` + "\nfile").Inc()
	cv.With("plain").Add(2)

	out := exposition(t, reg)
	want := `test_escape_total{path="C:\\drtp \"trace\"\nfile"} 1`
	if !strings.Contains(out, want) {
		t.Fatalf("escaped series missing.\nwant line: %s\ngot:\n%s", want, out)
	}
	if !strings.Contains(out, `test_escape_total{path="plain"} 2`) {
		t.Fatalf("plain series missing:\n%s", out)
	}
	// The escaped value must not leak a raw newline into the body: every
	// line of the output is either a comment or name{labels} value.
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if line == "" {
			t.Fatalf("raw newline leaked into exposition:\n%q", out)
		}
	}
}

// TestExpositionHistogramInfBucket checks the +Inf overflow bucket line
// of the latency histogram: it is always last, cumulative, and equals the
// _count series; finite bucket lines appear only where the count advances
// and carry the power-of-two bound in seconds.
func TestExpositionHistogramInfBucket(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Latency("test_lat_seconds", "latency")
	// The sum is kept in integer nanoseconds, so it prints exactly.
	for _, d := range []time.Duration{
		time.Microsecond, 500 * time.Millisecond, 4 * time.Second, 4 * time.Second,
	} {
		h.Observe(d)
	}

	out := exposition(t, reg)
	for _, want := range []string{
		"# TYPE test_lat_seconds histogram",
		`test_lat_seconds_bucket{le="1.024e-06"} 1`,
		`test_lat_seconds_bucket{le="0.536870912"} 2`,
		`test_lat_seconds_bucket{le="4.294967296"} 4`,
		`test_lat_seconds_bucket{le="+Inf"} 4`,
		`test_lat_seconds_count 4`,
		`test_lat_seconds_sum 8.500001`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Cumulative ordering: +Inf is the last bucket line, and empty
	// buckets between the observed ones are not printed.
	buckets := 0
	lastBucket := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "test_lat_seconds_bucket") {
			buckets++
			lastBucket = l
		}
	}
	if !strings.Contains(lastBucket, `le="+Inf"`) {
		t.Fatalf("+Inf bucket not last: %q", lastBucket)
	}
	if buckets != 4 {
		t.Fatalf("%d bucket lines, want 3 observed + +Inf:\n%s", buckets, out)
	}
}

// TestExpositionEmptyHistogram: a registered unlabeled histogram with no
// observations still prints its series — the (zero) +Inf bucket, sum and
// count; scrapers need them to exist before the first sample — while a
// labeled family with no children prints nothing at all.
func TestExpositionEmptyHistogram(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Latency("test_idle_seconds", "never observed")
	reg.LatencyVec("test_empty_vec_seconds", "no children", "scheme")
	reg.CounterVec("test_empty_counter_total", "no children", "scheme")

	out := exposition(t, reg)
	for _, want := range []string{
		"# TYPE test_idle_seconds histogram",
		`test_idle_seconds_bucket{le="+Inf"} 0`,
		"test_idle_seconds_sum 0",
		"test_idle_seconds_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	for _, absent := range []string{"test_empty_vec_seconds", "test_empty_counter_total"} {
		if strings.Contains(out, absent) {
			t.Fatalf("family %s with no children was exposed:\n%s", absent, out)
		}
	}
}

// TestExpositionHistogramVecLabels: bucket lines of a labeled histogram
// carry both the family labels and the le bound, le last.
func TestExpositionHistogramVecLabels(t *testing.T) {
	reg := telemetry.NewRegistry()
	hv := reg.LatencyVec("test_hop_seconds", "hop latency", "scheme")
	hv.With("D-LSR").Observe(time.Microsecond)
	hv.With("D-LSR").Observe(4 * time.Second)

	out := exposition(t, reg)
	for _, want := range []string{
		`test_hop_seconds_bucket{scheme="D-LSR",le="1.024e-06"} 1`,
		`test_hop_seconds_bucket{scheme="D-LSR",le="+Inf"} 2`,
		`test_hop_seconds_sum{scheme="D-LSR"} 4.000001`,
		`test_hop_seconds_count{scheme="D-LSR"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
