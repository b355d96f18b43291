package experiments

import (
	"fmt"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/flood"
	"github.com/rtcl/drtp/internal/metrics"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/sim"
)

// OverheadResult quantifies the cost of discovering backup routes (§6
// evaluates this in the text without a dedicated figure): the on-demand
// flooding traffic of BF versus the link-state database footprint the LSR
// schemes maintain at every router.
type OverheadResult struct {
	Params Params
	Lambda float64
	// CDPForwardsPerRequest is BF's mean number of CDP transmissions per
	// connection request.
	CDPForwardsPerRequest float64
	// CandidatesPerRequest is the mean CRT size per request.
	CandidatesPerRequest float64
	// DetourDropsPerRequest is the mean number of CDP copies discarded by
	// the valid-detour test per request.
	DetourDropsPerRequest float64
	// Links is the number of unidirectional links N.
	Links int
	// PLSRBytesPerLink / DLSRBytesPerLink / APLVBytesPerLink are the
	// per-link link-state advertisement sizes: one scalar for P-LSR, an
	// N-bit Conflict Vector for D-LSR, and the full N-integer APLV a
	// naive scheme would need.
	PLSRBytesPerLink int
	DLSRBytesPerLink int
	APLVBytesPerLink int
	// RegisterLinkUpdates counts per-link APLV updates caused by backup
	// register/release packets during the D-LSR run (the signalling that
	// keeps the link-state databases current).
	RegisterLinkUpdates int64
	// RegisterUpdatesPerRequest normalizes RegisterLinkUpdates by the
	// number of requests.
	RegisterUpdatesPerRequest float64
}

// RunOverhead measures discovery overhead at one lambda, running BF for
// the flooding counters and D-LSR for the register-packet volume, on the
// identical scenario.
func RunOverhead(p Params, pattern scenario.Pattern, lambda float64) (*OverheadResult, error) {
	p.setDefaults()
	g, err := p.Topology()
	if err != nil {
		return nil, err
	}
	sc, err := p.generateScenario(pattern, lambda)
	if err != nil {
		return nil, err
	}
	// BF runs for the flooding counters, D-LSR for the register-packet
	// volume, both on the identical scenario without failure sweeps.
	ps := PaperSchemes()
	cfg := sim.Config{Warmup: p.Warmup}
	var bfStats flood.Stats
	var registerOps int64
	_, err = p.run([]cell{
		{graph: g, scen: sc, spec: ps[2], cfg: cfg},
		{graph: g, scen: sc, spec: ps[0], cfg: cfg},
	}, func(i int, net *drtp.Network, schm drtp.Scheme) {
		if i == 0 {
			bfStats = schm.(*flood.Scheme).Stats()
		} else {
			registerOps = net.DB().BackupOps()
		}
	})
	if err != nil {
		return nil, err
	}

	res := &OverheadResult{
		Params:              p,
		Lambda:              lambda,
		Links:               g.NumLinks(),
		PLSRBytesPerLink:    8,
		DLSRBytesPerLink:    (g.NumLinks() + 7) / 8,
		APLVBytesPerLink:    4 * g.NumLinks(),
		RegisterLinkUpdates: registerOps,
	}
	if bfStats.Requests > 0 {
		req := float64(bfStats.Requests)
		res.CDPForwardsPerRequest = float64(bfStats.CDPForwards) / req
		res.CandidatesPerRequest = float64(bfStats.Candidates) / req
		res.DetourDropsPerRequest = float64(bfStats.CDPDropsDetour) / req
		res.RegisterUpdatesPerRequest = float64(res.RegisterLinkUpdates) / req
	}
	return res, nil
}

// Table renders the result.
func (r *OverheadResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Backup-route discovery overhead (E=%.0f, lambda=%.2f)", r.Params.Degree, r.Lambda),
		"metric", "value")
	t.AddRow("CDP forwards / request (BF)", r.CDPForwardsPerRequest)
	t.AddRow("CRT candidates / request (BF)", r.CandidatesPerRequest)
	t.AddRow("valid-detour drops / request (BF)", r.DetourDropsPerRequest)
	t.AddRow("links N", r.Links)
	t.AddRow("P-LSR bytes/link advertised", r.PLSRBytesPerLink)
	t.AddRow("D-LSR bytes/link advertised (CV)", r.DLSRBytesPerLink)
	t.AddRow("full-APLV bytes/link (naive)", r.APLVBytesPerLink)
	t.AddRow("register-packet link updates (D-LSR)", r.RegisterLinkUpdates)
	t.AddRow("register updates / request (D-LSR)", r.RegisterUpdatesPerRequest)
	return t
}
