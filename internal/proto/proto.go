// Package proto defines the wire messages of the distributed DRTP
// implementation: link-state advertisements, hop-by-hop channel setup and
// teardown (with the primary LSET piggybacked on backup-register setup,
// §2.2 of the paper), hello keep-alives, failure reports and channel
// switching.
//
// Messages are plain structs so the in-memory transport can pass them
// directly; the TCP transport frames them with the deterministic binary
// codec in wire.go (see WriteFrame/ReadFrame). Each message states its
// wire layout once, in the fields method beside its struct, and is listed
// once in wire.go's registry.
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

// ReplyKey names the request a reply answers: the reply's kind and the
// request's correlation value. Transports key their waiter tables by it
// (see transport.Endpoint.Await).
type ReplyKey struct {
	tag byte
	id  uint64
}

// ReplyKeyOf returns the key of the request m answers, and false when m
// answers none. Setup and activate results correlate by Seq, command
// results by Seq, establish and release replies by Conn, drain replies
// by Node. A caller builds the key it awaits from a reply holding only
// that field, e.g. ReplyKeyOf(ConnCommandResult{Seq: seq}).
func ReplyKeyOf(m Message) (ReplyKey, bool) {
	switch m := m.(type) {
	case SetupResult:
		return ReplyKey{tagSetupResult, m.Seq}, true
	case ActivateResult:
		return ReplyKey{tagActivateResult, m.Seq}, true
	case ConnCommandResult:
		return ReplyKey{tagConnCommandResult, m.Seq}, true
	case EstablishReply:
		return ReplyKey{tagEstablishReply, uint64(m.Conn)}, true
	case ReleaseReply:
		return ReplyKey{tagReleaseReply, uint64(m.Conn)}, true
	case DrainReply:
		return ReplyKey{tagDrainReply, uint64(m.Node)}, true
	}
	return ReplyKey{}, false
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

func (m Hello) fields(c *codec) Message {
	c.tag(tagHello)
	vint(c, "Hello.From", &m.From)
	c.uvarint("Hello.Seq", &m.Seq)
	return decoded(c, &m)
}

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

// linkAdvert lays out one element of LSUpdate.Links: a length-prefixed
// sub-message.
func linkAdvert(c *codec, what string, la *LinkAdvert) {
	c.sub(what, func() {
		vint(c, "LinkAdvert.Link", &la.Link)
		vint(c, "LinkAdvert.AvailPrim", &la.AvailPrim)
		vint(c, "LinkAdvert.AvailBackup", &la.AvailBackup)
		vint(c, "LinkAdvert.Norm", &la.Norm)
		c.bytes("LinkAdvert.CV", &la.CV)
	})
}

// LSUpdate floods the advertising router's local link summaries. Updates
// carry an origin sequence number; stale updates are dropped. A fresh
// triggered update is forwarded down the origin's shortest-path tree; a
// fresh Refresh, the periodic advert, is re-flooded to all neighbors but
// the sender.
type LSUpdate struct {
	Origin  graph.NodeID
	Seq     uint64
	Links   []LinkAdvert
	Refresh bool
}

// Kind implements Message.
func (LSUpdate) Kind() string { return "ls-update" }

func (m LSUpdate) fields(c *codec) Message {
	c.tag(tagLSUpdate)
	vint(c, "LSUpdate.Origin", &m.Origin)
	c.uvarint("LSUpdate.Seq", &m.Seq)
	slice(c, "LSUpdate.Links", &m.Links, linkAdvert)
	c.bool("LSUpdate.Refresh", &m.Refresh)
	return decoded(c, &m)
}

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
	// Low is the originator's low-water mark when it sent the message:
	// the highest sequence number at or below which it has no round trip
	// outstanding and no retransmission scheduled, always below Seq. A hop
	// keeps what it recorded of the source's messages only while their
	// sequence is above the highest Low it has seen from that source, and
	// refuses a setup or activate at or below it as stale.
	Low uint64
}

// Kind implements Message.
func (Setup) Kind() string { return "setup" }

func (m Setup) fields(c *codec) Message {
	c.tag(tagSetup)
	vint(c, "Setup.Conn", &m.Conn)
	vint(c, "Setup.Channel", &m.Channel)
	ints(c, "Setup.Route", &m.Route)
	vint(c, "Setup.Hop", &m.Hop)
	ints(c, "Setup.PrimaryLSET", &m.PrimaryLSET)
	c.uvarint("Setup.Trace", &m.Trace)
	c.uvarint("Setup.Seq", &m.Seq)
	c.uvarint("Setup.Low", &m.Low)
	return decoded(c, &m)
}

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

func (m SetupResult) fields(c *codec) Message {
	c.tag(tagSetupResult)
	vint(c, "SetupResult.Conn", &m.Conn)
	vint(c, "SetupResult.Channel", &m.Channel)
	c.bool("SetupResult.OK", &m.OK)
	c.string("SetupResult.Reason", &m.Reason)
	vint(c, "SetupResult.FailedHop", &m.FailedHop)
	c.uvarint("SetupResult.Seq", &m.Seq)
	return decoded(c, &m)
}

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
	// Low is the originator's low-water mark (see Setup.Low).
	Low uint64
}

// Kind implements Message.
func (Teardown) Kind() string { return "teardown" }

func (m Teardown) fields(c *codec) Message {
	c.tag(tagTeardown)
	vint(c, "Teardown.Conn", &m.Conn)
	vint(c, "Teardown.Channel", &m.Channel)
	ints(c, "Teardown.Route", &m.Route)
	vint(c, "Teardown.Hop", &m.Hop)
	vint(c, "Teardown.UpTo", &m.UpTo)
	c.uvarint("Teardown.Trace", &m.Trace)
	c.uvarint("Teardown.Seq", &m.Seq)
	c.uvarint("Teardown.Low", &m.Low)
	return decoded(c, &m)
}

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

func (m FailureReport) fields(c *codec) Message {
	c.tag(tagFailureReport)
	vint(c, "FailureReport.Link", &m.Link)
	ints(c, "FailureReport.Conns", &m.Conns)
	slice(c, "FailureReport.Traces", &m.Traces, (*codec).uvarint)
	return decoded(c, &m)
}

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
	// Low is the originator's low-water mark (see Setup.Low).
	Low uint64
}

// Kind implements Message.
func (Activate) Kind() string { return "activate" }

func (m Activate) fields(c *codec) Message {
	c.tag(tagActivate)
	vint(c, "Activate.Conn", &m.Conn)
	ints(c, "Activate.Route", &m.Route)
	vint(c, "Activate.Hop", &m.Hop)
	c.uvarint("Activate.Trace", &m.Trace)
	c.uvarint("Activate.Seq", &m.Seq)
	c.uvarint("Activate.Low", &m.Low)
	return decoded(c, &m)
}

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

func (m ActivateResult) fields(c *codec) Message {
	c.tag(tagActivateResult)
	vint(c, "ActivateResult.Conn", &m.Conn)
	c.bool("ActivateResult.OK", &m.OK)
	c.string("ActivateResult.Reason", &m.Reason)
	c.uvarint("ActivateResult.Seq", &m.Seq)
	return decoded(c, &m)
}
