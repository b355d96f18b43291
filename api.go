package drtp

import (
	"io"
	"net/http"

	core "github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/experiments"
	"github.com/rtcl/drtp/internal/flood"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/routing"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/sim"
	"github.com/rtcl/drtp/internal/telemetry"
	"github.com/rtcl/drtp/internal/topology"
)

// Graph and identifier types.
type (
	// Graph is a directed graph whose links come in bidirectional edge
	// pairs; see AddEdge.
	Graph = graph.Graph
	// NodeID identifies a node (router/switch).
	NodeID = graph.NodeID
	// LinkID identifies a unidirectional link.
	LinkID = graph.LinkID
	// EdgeID identifies a physical (bidirectional) edge.
	EdgeID = graph.EdgeID
	// Link is a unidirectional link between two nodes.
	Link = graph.Link
	// Path is a sequence of links between two nodes.
	Path = graph.Path
	// CostFunc assigns Dijkstra traversal costs to links.
	CostFunc = graph.CostFunc
	// DistanceTable holds all-pairs minimum hop counts.
	DistanceTable = graph.DistanceTable
)

// Core DRTP types.
type (
	// ConnID identifies a DR-connection.
	ConnID = core.ConnID
	// Request asks for a DR-connection between two nodes.
	Request = core.Request
	// Route is a primary/backup path pair chosen by a Scheme.
	Route = core.Route
	// Scheme selects primary and backup routes for requests.
	Scheme = core.Scheme
	// Network bundles a topology with its link-state database.
	Network = core.Network
	// Manager is the DR-connection manager (admission, reservation,
	// backup registration, teardown, failure evaluation).
	Manager = core.Manager
	// ManagerOption configures a Manager.
	ManagerOption = core.ManagerOption
	// Connection is an established DR-connection.
	Connection = core.Connection
	// Stats aggregates a Manager's admission outcomes.
	Stats = core.Stats
	// FailureModel selects link- or edge-granularity failures.
	FailureModel = core.FailureModel
	// FailureOutcome summarizes recovery from one simulated failure.
	FailureOutcome = core.FailureOutcome
	// DB is the per-link state store (bandwidth, APLV, Conflict Vector).
	DB = lsdb.DB
	// Mode selects multiplexed or dedicated spare sizing.
	Mode = lsdb.Mode
)

// Topology generation.
type (
	// WaxmanConfig parameterizes the Waxman random-graph generator.
	WaxmanConfig = topology.WaxmanConfig
)

// Traffic scenarios and simulation.
type (
	// Scenario is a replayable trace of connection requests/releases.
	Scenario = scenario.Scenario
	// ScenarioConfig parameterizes scenario generation.
	ScenarioConfig = scenario.Config
	// Pattern selects the traffic pattern (UT or NT).
	Pattern = scenario.Pattern
	// Event is one scenario entry.
	Event = scenario.Event
	// SimConfig controls a simulation run.
	SimConfig = sim.Config
	// SimResult aggregates one run's measurements.
	SimResult = sim.Result
)

// Bounded flooding.
type (
	// FloodParams are the four flooding-bound parameters.
	FloodParams = flood.Params
	// FloodScheme is the bounded-flooding routing scheme.
	FloodScheme = flood.Scheme
	// FloodStats counts flooding work (CDP forwards etc).
	FloodStats = flood.Stats
)

// Experiments (the paper's evaluation).
type (
	// ExperimentParams configures an evaluation sweep.
	ExperimentParams = experiments.Params
	// SchemeSpec names a scheme and builds instances per run.
	SchemeSpec = experiments.SchemeSpec
	// Sweep holds the cells of one evaluation sweep.
	Sweep = experiments.Sweep
	// SweepRow is one measured (pattern, lambda, scheme) cell.
	SweepRow = experiments.SweepRow
	// OverheadResult quantifies backup-route discovery overhead.
	OverheadResult = experiments.OverheadResult
	// Ablation compares design-choice variants.
	Ablation = experiments.Ablation
	// MultiBackup probes connections with more than one backup channel.
	MultiBackup = experiments.MultiBackup
	// Availability measures survival under repeated destructive failures.
	Availability = experiments.Availability
	// AvailabilityParams configures destructive-failure runs.
	AvailabilityParams = experiments.AvailabilityParams
	// RecoveryOutcome summarizes one destructive failure application.
	RecoveryOutcome = core.RecoveryOutcome
	// SimFailureEvent schedules a destructive edge failure in a run.
	SimFailureEvent = sim.FailureEvent
	// QoS studies the effect of end-to-end delay bounds on dependability.
	QoS = experiments.QoS
	// TopologySensitivity probes the schemes across topology families.
	TopologySensitivity = experiments.TopologySensitivity
	// BarabasiAlbertConfig parameterizes scale-free graph generation.
	BarabasiAlbertConfig = topology.BarabasiAlbertConfig
)

// Enumerations and sentinel errors.
var (
	// ErrNoRoute indicates no feasible primary route exists.
	ErrNoRoute = core.ErrNoRoute
	// ErrNoBackup indicates a request was rejected for lack of a backup.
	ErrNoBackup = core.ErrNoBackup
)

const (
	// UT is uniform traffic: source and destination uniform at random.
	UT = scenario.UT
	// NT is non-uniform traffic: 10 hot nodes receive 50% of requests.
	NT = scenario.NT
	// Arrival marks a connection-request event.
	Arrival = scenario.Arrival
	// Departure marks a connection-release event.
	Departure = scenario.Departure
	// LinkFailures fails one unidirectional link at a time (the paper's
	// failure model).
	LinkFailures = core.LinkFailures
	// EdgeFailures fails both directions of a physical edge at once.
	EdgeFailures = core.EdgeFailures
	// Multiplexed shares spare bandwidth across non-conflicting backups
	// (DRTP's backup multiplexing).
	Multiplexed = lsdb.Multiplexed
	// Dedicated reserves full bandwidth per backup (no multiplexing).
	Dedicated = lsdb.Dedicated
	// InvalidNode is the sentinel for "no node".
	InvalidNode = graph.InvalidNode
	// InvalidLink is the sentinel for "no link".
	InvalidLink = graph.InvalidLink
	// InvalidEdge is the sentinel for "no edge".
	InvalidEdge = graph.InvalidEdge
)

// Telemetry (event tracing and metrics; see internal/telemetry).
type (
	// Tracer is the structured protocol-event bus. A nil *Tracer is a
	// valid no-op instrument.
	Tracer = telemetry.Tracer
	// TraceEvent is one emitted protocol event.
	TraceEvent = telemetry.Event
	// TraceEventKind enumerates the typed protocol events.
	TraceEventKind = telemetry.EventKind
	// TraceSink consumes emitted events (Ring, JSONL, MetricsSink).
	TraceSink = telemetry.Sink
	// RingSink keeps the last n events in memory.
	RingSink = telemetry.Ring
	// JSONLSink appends events as JSON lines to a writer.
	JSONLSink = telemetry.JSONL
	// MetricsRegistry holds named counters, gauges and histograms and
	// writes Prometheus text format.
	MetricsRegistry = telemetry.Registry
	// ReconstructedTrace is a set of connection-lifecycle and failure-
	// recovery spans rebuilt from raw events (see BuildTrace).
	ReconstructedTrace = telemetry.Trace
	// ConnSpan is one DR-connection's reconstructed lifecycle.
	ConnSpan = telemetry.ConnSpan
	// RecoverySpan links one link failure to its per-connection outcomes.
	RecoverySpan = telemetry.RecoverySpan
	// TraceReport is the paper-aligned analysis of a reconstructed trace
	// (P_act-bk per scheme, disruption times, link criticality,
	// occupancy).
	TraceReport = telemetry.Report
)

// Trace event kinds (see telemetry.EventKind).
const (
	EvConnEstablish    = telemetry.EvConnEstablish
	EvConnReject       = telemetry.EvConnReject
	EvBackupRegister   = telemetry.EvBackupRegister
	EvBackupRelease    = telemetry.EvBackupRelease
	EvLinkFail         = telemetry.EvLinkFail
	EvBackupActivate   = telemetry.EvBackupActivate
	EvActivationDenied = telemetry.EvActivationDenied
	EvCDPForward       = telemetry.EvCDPForward
	EvCDPDrop          = telemetry.EvCDPDrop
	EvLSUpdate         = telemetry.EvLSUpdate
	EvConnRequest      = telemetry.EvConnRequest
	EvPrimarySetup     = telemetry.EvPrimarySetup
	EvConnTeardown     = telemetry.EvConnTeardown
	EvHopSignal        = telemetry.EvHopSignal
	EvLinkState        = telemetry.EvLinkState
)

// NewTracer creates an event tracer fanning out to the given sinks.
func NewTracer(sinks ...TraceSink) *Tracer { return telemetry.NewTracer(sinks...) }

// NewRingSink keeps the most recent n events in memory.
func NewRingSink(n int) *RingSink { return telemetry.NewRing(n) }

// NewJSONLSink streams events as JSON lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return telemetry.NewJSONL(w) }

// NewMetricsSink aggregates events into reg's counter families.
func NewMetricsSink(reg *MetricsRegistry) TraceSink { return telemetry.NewMetricsSink(reg) }

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// MetricsHandler serves reg as Prometheus text on /metrics plus a
// /healthz liveness probe.
func MetricsHandler(reg *MetricsRegistry) http.Handler { return telemetry.Handler(reg, nil) }

// ReadTraceJSONL parses an event stream written by a JSONL sink.
func ReadTraceJSONL(r io.Reader) ([]TraceEvent, error) { return telemetry.ReadJSONL(r) }

// BuildTrace reconstructs per-connection lifecycle spans and per-failure
// recovery spans from raw events (possibly merged from several files; the
// cmd/drtptrace CLI wraps this).
func BuildTrace(events []TraceEvent) *ReconstructedTrace { return telemetry.BuildTrace(events) }

// BuildTraceReport derives the paper-aligned report from a reconstructed
// trace.
func BuildTraceReport(tr *ReconstructedTrace) *TraceReport { return telemetry.BuildReport(tr) }

// ConnTrace derives the deterministic span/trace ID keying every event of
// one connection's lifecycle under the named scheme.
func ConnTrace(scheme string, conn int64) uint64 { return telemetry.ConnTrace(scheme, conn) }

// WithTelemetry attaches an event tracer to a Manager; all admission,
// registration and failure-recovery events are emitted through it.
func WithTelemetry(tr *Tracer) ManagerOption { return core.WithTelemetry(tr) }

// NewGraph creates a graph with n nodes and no edges.
func NewGraph(n int) *Graph { return graph.New(n) }

// Waxman generates a connected Waxman random graph (the paper's topology
// model).
func Waxman(cfg WaxmanConfig) (*Graph, error) { return topology.Waxman(cfg) }

// Grid builds a w x h mesh (the paper's Figure 1 uses the 3x3 case).
func Grid(w, h int) (*Graph, error) { return topology.Grid(w, h) }

// Ring builds a cycle of n nodes.
func Ring(n int) (*Graph, error) { return topology.Ring(n) }

// FromEdgeList builds a graph from undirected node pairs.
func FromEdgeList(n int, edges [][2]int) (*Graph, error) {
	return topology.FromEdgeList(n, edges)
}

// NewNetwork creates a network with uniform link capacity and per-
// connection bandwidth unitBW, with backup multiplexing enabled.
func NewNetwork(g *Graph, capacity, unitBW int) (*Network, error) {
	return core.NewNetwork(g, capacity, unitBW)
}

// NewNetworkWithMode is NewNetwork with explicit spare sizing (Dedicated
// disables backup multiplexing).
func NewNetworkWithMode(g *Graph, capacity, unitBW int, mode Mode) (*Network, error) {
	return core.NewNetworkWithMode(g, capacity, unitBW, mode)
}

// NewManager creates a DR-connection manager over net using scheme.
func NewManager(net *Network, scheme Scheme, opts ...ManagerOption) *Manager {
	return core.NewManager(net, scheme, opts...)
}

// WithOptionalBackup admits connections even when no backup channel can be
// established (the default policy rejects them).
func WithOptionalBackup() ManagerOption { return core.WithOptionalBackup() }

// FaultTolerance aggregates failure outcomes into the paper's P_act-bk.
func FaultTolerance(outcomes []FailureOutcome) (float64, bool) {
	return core.FaultTolerance(outcomes)
}

// SchemeOption configures a link-state routing scheme.
type SchemeOption = routing.Option

// WithBackupCount routes k backup channels per connection (the paper's
// "one or more backup channels"); the default is one.
func WithBackupCount(k int) SchemeOption { return routing.WithBackupCount(k) }

// NewDLSR returns the deterministic link-state routing scheme (D-LSR).
func NewDLSR(opts ...SchemeOption) Scheme { return routing.NewDLSR(opts...) }

// NewPLSR returns the probabilistic link-state routing scheme (P-LSR).
func NewPLSR(opts ...SchemeOption) Scheme { return routing.NewPLSR(opts...) }

// NewBoundedFlooding returns the bounded-flooding scheme (BF) with the
// given parameters.
func NewBoundedFlooding(params FloodParams) *FloodScheme { return flood.New(params) }

// NewBoundedFloodingDefault returns BF with the evaluation parameters.
func NewBoundedFloodingDefault() *FloodScheme { return flood.NewDefault() }

// DefaultFloodParams returns the evaluation flooding parameters.
func DefaultFloodParams() FloodParams { return flood.DefaultParams() }

// NewNoBackup returns the primary-only baseline scheme.
func NewNoBackup() Scheme { return routing.NewNoBackup() }

// NewMinHopDisjoint returns the conflict-blind baseline scheme.
func NewMinHopDisjoint(opts ...SchemeOption) Scheme { return routing.NewMinHopDisjoint(opts...) }

// NewRouteWithBackup builds a single-backup Route (helper for custom
// Scheme implementations).
func NewRouteWithBackup(primary, backup Path) Route { return core.WithBackup(primary, backup) }

// NewRandom returns the randomized baseline scheme.
func NewRandom(seed int64) Scheme { return routing.NewRandom(seed) }

// NewJoint returns the joint disjoint-pair routing scheme (Bhandari), an
// ablation against the paper's sequential primary-then-backup selection.
func NewJoint() Scheme { return routing.NewJoint() }

// DisjointPair finds two link-disjoint paths minimizing total cost
// (Bhandari's algorithm).
func DisjointPair(g *Graph, src, dst NodeID, cost CostFunc) (Path, Path, bool) {
	return graph.DisjointPair(g, src, dst, cost)
}

// GenerateScenario creates a traffic scenario deterministically from cfg.
func GenerateScenario(cfg ScenarioConfig) (*Scenario, error) {
	return scenario.Generate(cfg)
}

// LoadScenario reads a scenario file written by Scenario.Save.
func LoadScenario(path string) (*Scenario, error) { return scenario.Load(path) }

// RunSim replays a scenario against a fresh manager and measures
// acceptance, load and fault tolerance.
func RunSim(net *Network, scheme Scheme, sc *Scenario, cfg SimConfig) (*SimResult, error) {
	return sim.Run(net, scheme, sc, cfg)
}

// DefaultExperimentParams returns the paper's evaluation setting for the
// given average node degree (3 or 4).
func DefaultExperimentParams(degree float64) ExperimentParams {
	return experiments.DefaultParams(degree)
}

// PaperSchemes returns the three schemes the paper evaluates.
func PaperSchemes() []SchemeSpec { return experiments.PaperSchemes() }

// RunSweep evaluates schemes over all (pattern, lambda) cells, replaying
// identical scenario files per cell (Figures 4 and 5).
func RunSweep(p ExperimentParams, schemes []SchemeSpec) (*Sweep, error) {
	return experiments.RunSweep(p, schemes)
}

// RunOverhead measures backup-route discovery overhead at one lambda.
func RunOverhead(p ExperimentParams, pattern Pattern, lambda float64) (*OverheadResult, error) {
	return experiments.RunOverhead(p, pattern, lambda)
}

// RunAblation compares design-choice variants (multiplexed vs dedicated
// spares, conflict-aware vs conflict-blind vs random vs reactive).
func RunAblation(p ExperimentParams) (*Ablation, error) {
	return experiments.RunAblation(p)
}

// RunMultiBackup evaluates connections carrying one and two backup
// channels under single- and double-link failures.
func RunMultiBackup(p ExperimentParams) (*MultiBackup, error) {
	return experiments.RunMultiBackup(p)
}

// DefaultAvailabilityParams returns the destructive-failure defaults.
func DefaultAvailabilityParams(degree float64) AvailabilityParams {
	return experiments.DefaultAvailabilityParams(degree)
}

// RunAvailability measures service survival under a stream of real link
// failures with repair (channel switching, drops, re-protection).
func RunAvailability(p AvailabilityParams) (*Availability, error) {
	return experiments.RunAvailability(p)
}

// RunQoS evaluates how per-request delay bounds (MaxHops = distance +
// slack) constrain fault tolerance and acceptance.
func RunQoS(p ExperimentParams, lambda float64) (*QoS, error) {
	return experiments.RunQoS(p, lambda)
}

// RunTopologySensitivity evaluates the schemes across Waxman, scale-free
// and grid topologies at one lambda.
func RunTopologySensitivity(p ExperimentParams, lambda float64) (*TopologySensitivity, error) {
	return experiments.RunTopologySensitivity(p, lambda)
}

// BarabasiAlbert generates a connected scale-free graph by preferential
// attachment.
func BarabasiAlbert(cfg BarabasiAlbertConfig) (*Graph, error) {
	return topology.BarabasiAlbert(cfg)
}

// ShortestPathBounded finds the minimum-cost path using at most maxHops
// links (the constrained search behind QoS-bounded backup routing).
func ShortestPathBounded(g *Graph, src, dst NodeID, cost CostFunc, maxHops int) (Path, float64) {
	var s graph.Scratch
	return s.ShortestPathBounded(g, src, dst, cost, maxHops)
}

// ShortestPath runs Dijkstra's algorithm under the given link costs.
func ShortestPath(g *Graph, src, dst NodeID, cost CostFunc) (Path, float64) {
	var s graph.Scratch
	return s.ShortestPath(g, src, dst, cost)
}
