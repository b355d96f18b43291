package experiments

import (
	"bytes"
	"strings"
	"testing"

	"github.com/rtcl/drtp/internal/scenario"
)

// tinyParams returns a scaled-down evaluation that runs in well under a
// second per cell.
func tinyParams() Params {
	return Params{
		Nodes:        20,
		Degree:       3,
		Capacity:     15,
		UnitBW:       1,
		Lambdas:      []float64{0.3},
		Patterns:     []scenario.Pattern{scenario.UT},
		Duration:     120,
		Warmup:       60,
		EvalInterval: 20,
		Seed:         3,
	}
}

func TestRunSweepProducesAllCells(t *testing.T) {
	p := tinyParams()
	p.Patterns = []scenario.Pattern{scenario.UT, scenario.NT}
	p.Lambdas = []float64{0.2, 0.4}
	sweep, err := RunSweep(p, PaperSchemes())
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 3; len(sweep.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(sweep.Rows), want)
	}
	if len(sweep.Baselines) != 4 {
		t.Fatalf("baselines = %d, want 4", len(sweep.Baselines))
	}
	for _, r := range sweep.Rows {
		if r.BaselineAccepted == 0 {
			t.Fatalf("cell %s/%v/%s has no baseline", r.Pattern, r.Lambda, r.Scheme)
		}
		if !r.Result.FTValid {
			t.Fatalf("cell %s/%v/%s has no fault-tolerance measurement", r.Pattern, r.Lambda, r.Scheme)
		}
		if ft := r.FaultTolerance(); ft <= 0 || ft > 1 {
			t.Fatalf("fault tolerance = %v", ft)
		}
		if oh := r.CapacityOverhead(); oh < 0 || oh > 1 {
			t.Fatalf("overhead = %v", oh)
		}
	}
	if sweep.Baseline(scenario.UT, 0.2) == nil {
		t.Fatal("Baseline lookup failed")
	}
}

func TestSweepTables(t *testing.T) {
	sweep, err := RunSweep(tinyParams(), PaperSchemes())
	if err != nil {
		t.Fatal(err)
	}
	fig4 := sweep.Fig4Table()
	if fig4.NumRows() != len(sweep.Rows) {
		t.Fatalf("fig4 rows = %d", fig4.NumRows())
	}
	if !strings.Contains(fig4.Title, "Figure 4") {
		t.Fatalf("title = %q", fig4.Title)
	}
	fig5 := sweep.Fig5Table()
	if fig5.NumRows() != len(sweep.Rows) {
		t.Fatalf("fig5 rows = %d", fig5.NumRows())
	}
	var buf bytes.Buffer
	if err := sweep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "D-LSR") || !strings.Contains(buf.String(), "BF") {
		t.Fatal("render missing schemes")
	}
}

func TestRunOverhead(t *testing.T) {
	res, err := RunOverhead(tinyParams(), scenario.UT, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if res.CDPForwardsPerRequest <= 0 || res.CandidatesPerRequest <= 0 {
		t.Fatalf("flood counters: %+v", res)
	}
	if res.RegisterLinkUpdates <= 0 {
		t.Fatal("no register updates counted")
	}
	if res.Links != 60 { // 20 nodes * degree 3
		t.Fatalf("links = %d", res.Links)
	}
	if res.DLSRBytesPerLink != (res.Links+7)/8 {
		t.Fatalf("CV bytes = %d", res.DLSRBytesPerLink)
	}
	tbl := res.Table()
	if tbl.NumRows() != 9 {
		t.Fatalf("overhead table rows = %d", tbl.NumRows())
	}
}

func TestRunAblation(t *testing.T) {
	a, err := RunAblation(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 variants", len(a.Rows))
	}
	byVariant := make(map[string]AblationRow, len(a.Rows))
	for _, r := range a.Rows {
		byVariant[r.Variant] = r
	}
	ded, ok := byVariant["dedicated"]
	if !ok {
		t.Fatal("missing dedicated variant")
	}
	mux := byVariant["D-LSR"]
	// Dedicated backups must reserve at least as much as multiplexed
	// ones, accepting no more connections.
	if ded.Result.AcceptedInWindow > mux.Result.AcceptedInWindow {
		t.Fatalf("dedicated accepted %d > multiplexed %d",
			ded.Result.AcceptedInWindow, mux.Result.AcceptedInWindow)
	}
	if a.Table().NumRows() != 6 {
		t.Fatal("table rows wrong")
	}
	if _, ok := byVariant["reactive"]; !ok {
		t.Fatal("missing reactive variant")
	}
	if _, ok := byVariant["joint"]; !ok {
		t.Fatal("missing joint variant")
	}
}

func TestTable1(t *testing.T) {
	tbl := Table1(DefaultParams(3))
	if tbl.NumRows() < 10 {
		t.Fatalf("table1 rows = %d", tbl.NumRows())
	}
	s := tbl.String()
	for _, want := range []string{"Waxman", "Poisson", "uniform 20-60", "60"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table1 missing %q:\n%s", want, s)
		}
	}
}

func TestDefaultParamsLambdaRanges(t *testing.T) {
	p3 := DefaultParams(3)
	if p3.Lambdas[0] != 0.2 || p3.Lambdas[len(p3.Lambdas)-1] != 0.7 {
		t.Fatalf("E=3 lambdas = %v", p3.Lambdas)
	}
	p4 := DefaultParams(4)
	if p4.Lambdas[0] != 0.4 || p4.Lambdas[len(p4.Lambdas)-1] != 1.0 {
		t.Fatalf("E=4 lambdas = %v", p4.Lambdas)
	}
	if p3.Nodes != 60 {
		t.Fatalf("params = %+v", p3)
	}
}

func TestParamsTopologyDeterministic(t *testing.T) {
	p := DefaultParams(3)
	a, err := p.Topology()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("topology not deterministic")
	}
}

func TestRunMultiBackup(t *testing.T) {
	mb, err := RunMultiBackup(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(mb.Rows) != 2 {
		t.Fatalf("rows = %d, want k=1 and k=2", len(mb.Rows))
	}
	byK := make(map[int]MultiBackupRow, 2)
	for _, r := range mb.Rows {
		byK[r.Backups] = r
	}
	k1, k2 := byK[1], byK[2]
	if !k1.Result.PairFTValid || !k2.Result.PairFTValid {
		t.Fatal("pair-failure sweeps missing")
	}
	if k2.Result.PairFaultTolerance < k1.Result.PairFaultTolerance {
		t.Fatalf("second backup did not help under double failures: %v vs %v",
			k2.Result.PairFaultTolerance, k1.Result.PairFaultTolerance)
	}
	if k2.AvgBackupsPerConn() <= k1.AvgBackupsPerConn() {
		t.Fatalf("backups/conn: k2=%v k1=%v", k2.AvgBackupsPerConn(), k1.AvgBackupsPerConn())
	}
	if mb.Table().NumRows() != 2 {
		t.Fatal("table rows wrong")
	}
}

func TestRunAvailability(t *testing.T) {
	ap := AvailabilityParams{
		Params:                  tinyParams(),
		Lambda:                  0.3,
		MeanTimeBetweenFailures: 15,
		RepairTime:              10,
	}
	av, err := RunAvailability(ap)
	if err != nil {
		t.Fatal(err)
	}
	if av.Failures == 0 {
		t.Fatal("no failures scheduled")
	}
	if len(av.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 schemes", len(av.Rows))
	}
	byName := make(map[string]AvailabilityRow, len(av.Rows))
	for _, r := range av.Rows {
		byName[r.Scheme] = r
	}
	drtpRow := byName["D-LSR k=1"]
	none := byName["NoRecovery"]
	if drtpRow.Result.Availability <= none.Result.Availability {
		t.Fatalf("DRTP availability %v not better than no recovery %v",
			drtpRow.Result.Availability, none.Result.Availability)
	}
	if none.Result.Switched != 0 || none.Result.Dropped == 0 {
		t.Fatalf("no-recovery row inconsistent: %+v", none.Result)
	}
	if av.Table().NumRows() != 5 {
		t.Fatal("table rows wrong")
	}
}

func TestRunAvailabilityValidation(t *testing.T) {
	ap := AvailabilityParams{Params: tinyParams(), Lambda: 0.3}
	if _, err := RunAvailability(ap); err == nil {
		t.Fatal("zero MTBF accepted")
	}
}

func TestRunQoS(t *testing.T) {
	q, err := RunQoS(tinyParams(), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 10 { // 5 slack values x 2 schemes
		t.Fatalf("rows = %d", len(q.Rows))
	}
	var tight, loose *QoSRow
	for i := range q.Rows {
		r := &q.Rows[i]
		if r.Scheme != "D-LSR" {
			continue
		}
		switch r.Slack {
		case 0:
			tight = r
		case -1:
			loose = r
		}
	}
	if tight == nil || loose == nil {
		t.Fatal("missing D-LSR rows")
	}
	// A tight delay bound must hurt fault tolerance (the paper's "too
	// tight to use the longer path" effect).
	if tight.Result.FaultTolerance >= loose.Result.FaultTolerance {
		t.Fatalf("tight FT %v >= unbounded FT %v",
			tight.Result.FaultTolerance, loose.Result.FaultTolerance)
	}
	// And bounded backups are never longer than bounded allows: the
	// average is at most the average primary length plus the slack.
	if tight.Result.AvgBackupHops > tight.Result.AvgPrimaryHops+0.001 {
		t.Fatalf("slack-0 backups longer than primaries: %v vs %v",
			tight.Result.AvgBackupHops, tight.Result.AvgPrimaryHops)
	}
	if q.Table().NumRows() != 10 {
		t.Fatal("table rows wrong")
	}
}

func TestRunSweepReplications(t *testing.T) {
	p := tinyParams()
	p.Replications = 3
	sweep, err := RunSweep(p, PaperSchemes())
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Rows) != 3 {
		t.Fatalf("rows = %d (replications must aggregate, not multiply)", len(sweep.Rows))
	}
	for _, r := range sweep.Rows {
		if r.FTSample.N() != 3 || r.OverheadSample.N() != 3 {
			t.Fatalf("cell %s has %d/%d samples", r.Scheme, r.FTSample.N(), r.OverheadSample.N())
		}
		if r.FTSample.Min() <= 0 || r.FTSample.Max() > 1 {
			t.Fatalf("FT range [%v,%v]", r.FTSample.Min(), r.FTSample.Max())
		}
	}
	title := sweep.Fig4Table().Title
	if !strings.Contains(title, "3 replications") {
		t.Fatalf("title = %q", title)
	}
}

func TestRunTopologySensitivity(t *testing.T) {
	ts, err := RunTopologySensitivity(tinyParams(), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Rows) != 12 { // 4 topologies x 3 schemes
		t.Fatalf("rows = %d", len(ts.Rows))
	}
	seen := make(map[string]bool)
	for _, r := range ts.Rows {
		seen[r.Topology] = true
		if !r.Result.FTValid {
			t.Fatalf("%s/%s has no FT sample", r.Topology, r.Scheme)
		}
		if r.AvgDegree <= 0 || r.MeanHops <= 0 {
			t.Fatalf("topology stats missing: %+v", r)
		}
	}
	for _, want := range []string{"waxman-e3", "waxman-e4", "scale-free", "grid"} {
		if !seen[want] {
			t.Fatalf("missing topology %s", want)
		}
	}
	if ts.Table().NumRows() != 12 {
		t.Fatal("table rows wrong")
	}
}
