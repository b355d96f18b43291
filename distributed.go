package drtp

import (
	"github.com/rtcl/drtp/internal/router"
	"github.com/rtcl/drtp/internal/transport"
)

// Distributed protocol layer: message-passing routers over pluggable
// transports (see internal/router for the protocol description).
type (
	// Router is one DRTP node: it owns its outgoing links' reservations,
	// floods link-state advertisements, signals channel setup/teardown,
	// detects failures via hellos and switches connections to backups.
	Router = router.Router
	// RouterConfig parameterizes a Router.
	RouterConfig = router.Config
	// RouterCluster runs one router per topology node over a transport.
	RouterCluster = router.Cluster
	// RouterConnInfo is a snapshot of a connection originated at a router.
	RouterConnInfo = router.ConnInfo
	// BackupScheme selects D-LSR or P-LSR routing inside routers.
	BackupScheme = router.BackupScheme
	// Endpoint is a router's attachment to a transport.
	Endpoint = transport.Endpoint
	// MemTransport is the in-memory switchboard transport.
	MemTransport = transport.Mem
	// TCPMesh is the TCP transport with a static address directory.
	TCPMesh = transport.TCPMesh
)

const (
	// RouterDLSR selects Conflict-Vector backup routing in routers.
	RouterDLSR = router.DLSR
	// RouterPLSR selects ‖APLV‖₁ backup routing in routers.
	RouterPLSR = router.PLSR
)

// NewRouter creates and starts a single router on an endpoint.
func NewRouter(cfg RouterConfig, ep Endpoint) (*Router, error) {
	return router.New(cfg, ep)
}

// NewRouterCluster starts a router for every node of cfg.Graph.
func NewRouterCluster(cfg RouterConfig, at transport.Attacher) (*RouterCluster, error) {
	return router.NewCluster(cfg, at)
}

// NewMemTransport creates an in-memory switchboard transport.
func NewMemTransport() *MemTransport { return transport.NewMem() }

// NewTCPMesh creates a TCP transport from a node-to-address directory.
func NewTCPMesh(addrs map[NodeID]string) *TCPMesh { return transport.NewTCPMesh(addrs) }
