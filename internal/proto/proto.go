// Package proto defines the wire messages of the distributed DRTP
// implementation: link-state advertisements, hop-by-hop channel setup and
// teardown (with the primary LSET piggybacked on backup-register setup,
// §2.2 of the paper), hello keep-alives, failure reports and channel
// switching.
//
// Messages are plain structs so the in-memory transport can pass them
// directly; the TCP transport frames them with the deterministic binary
// codec in wire.go (see WriteFrame/ReadFrame).
package proto

import (
	"fmt"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
)

// ChannelKind distinguishes primary from backup channels in signalling.
type ChannelKind int

const (
	// Primary marks primary-channel signalling.
	Primary ChannelKind = iota + 1
	// Backup marks backup-channel signalling.
	Backup
)

// String returns "primary" or "backup".
func (k ChannelKind) String() string {
	switch k {
	case Primary:
		return "primary"
	case Backup:
		return "backup"
	default:
		return fmt.Sprintf("ChannelKind(%d)", int(k))
	}
}

// Message is implemented by every DRTP protocol message.
type Message interface {
	// Kind returns a short identifier used in logs and test assertions.
	Kind() string
}

// Envelope wraps a message in transit between two routers.
type Envelope struct {
	From graph.NodeID
	To   graph.NodeID
	Msg  Message
}

// Hello is the neighbor keep-alive used for failure detection. A router
// that misses several consecutive hellos on a link declares the link
// failed (DRTP step 2: detection of network failures).
type Hello struct {
	From graph.NodeID
	Seq  uint64
}

// Kind implements Message.
func (Hello) Kind() string { return "hello" }

// LinkAdvert summarizes one link's state for the link-state database.
// Norm is the scalar P-LSR uses; CV the bit-vector D-LSR uses. AvailPrim
// and AvailBackup are the two bandwidth figures routing needs.
type LinkAdvert struct {
	Link        graph.LinkID
	AvailPrim   int
	AvailBackup int
	Norm        int
	CV          []byte
}

// LSUpdate floods the advertising router's local link summaries. Updates
// carry an origin sequence number; stale updates are dropped, fresh ones
// are re-flooded to all neighbors but the sender.
type LSUpdate struct {
	Origin graph.NodeID
	Seq    uint64
	Links  []LinkAdvert
}

// Kind implements Message.
func (LSUpdate) Kind() string { return "ls-update" }

// Setup reserves a channel hop-by-hop along Route (node IDs, source
// first). Hop indexes the node currently processing the message. For
// backup channels, PrimaryLSET carries the links of the corresponding
// primary route so each hop can update its APLV (the paper's
// backup-path register packet).
type Setup struct {
	Conn        lsdb.ConnID
	Channel     ChannelKind
	Route       []graph.NodeID
	Hop         int
	PrimaryLSET []graph.LinkID
	// Trace is the connection's span context, propagated so every router
	// on the path stamps its telemetry with the same trace ID.
	Trace uint64
	// Seq is the originator's signalling sequence number. Retransmissions
	// of the same setup reuse the Seq, so hops that already reserved the
	// channel recognise the duplicate and forward without re-reserving
	// (at-least-once delivery with idempotent processing).
	Seq uint64
}

// Kind implements Message.
func (Setup) Kind() string { return "setup" }

// SetupResult reports setup success or failure back to the source.
type SetupResult struct {
	Conn    lsdb.ConnID
	Channel ChannelKind
	OK      bool
	Reason  string
	// FailedHop is the route index whose reservation failed (when !OK);
	// hops before it have already been released by the teardown sweep.
	FailedHop int
	// Seq echoes the Setup.Seq this result answers, so the source can
	// discard results of superseded attempts.
	Seq uint64
}

// Kind implements Message.
func (SetupResult) Kind() string { return "setup-result" }

// Teardown releases a channel hop-by-hop along Route starting at Hop.
// UpTo bounds the release to route prefixes (used to roll back partially
// established channels); a negative UpTo releases the full route.
type Teardown struct {
	Conn    lsdb.ConnID
	Channel ChannelKind
	Route   []graph.NodeID
	Hop     int
	UpTo    int
	// Trace is the connection's span context (see Setup.Trace).
	Trace uint64
	// Seq is the originator's signalling sequence number (see Setup.Seq).
	Seq uint64
}

// Kind implements Message.
func (Teardown) Kind() string { return "teardown" }

// FailureReport tells a connection's source router that a link on its
// primary channel failed (DRTP step 3: failure reporting).
type FailureReport struct {
	Link  graph.LinkID
	Conns []lsdb.ConnID
	// Traces carries the span context of each reported connection,
	// parallel to Conns (empty when the reporter traces nothing).
	Traces []uint64
}

// Kind implements Message.
func (FailureReport) Kind() string { return "failure-report" }

// Activate promotes a backup channel to primary hop-by-hop: each hop
// moves the connection's reservation from the shared spare pool into
// primary bandwidth (DRTP step 3: channel switching).
type Activate struct {
	Conn  lsdb.ConnID
	Route []graph.NodeID
	Hop   int
	// Trace is the connection's span context (see Setup.Trace).
	Trace uint64
	// Seq is the originator's signalling sequence number (see Setup.Seq).
	Seq uint64
}

// Kind implements Message.
func (Activate) Kind() string { return "activate" }

// ActivateResult reports the outcome of a channel switch to the source.
type ActivateResult struct {
	Conn   lsdb.ConnID
	OK     bool
	Reason string
	// Seq echoes the Activate.Seq this result answers (see
	// SetupResult.Seq).
	Seq uint64
}

// Kind implements Message.
func (ActivateResult) Kind() string { return "activate-result" }
