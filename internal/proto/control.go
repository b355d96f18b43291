// Control-plane messages: the setup coordinator and the node agents
// (internal/controlplane) speak these over the same transport and wire
// codec as the data-plane signalling. The coordinator is addressed with a
// node ID past the topology (see controlplane.CoordinatorID); the
// messages below never index the graph, so the transport carries them
// untouched.
//
// Every message follows the wire.go discipline: one field list beside
// the struct, run by the codec in both directions, and one registry row.
package proto

import (
	"fmt"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
)

// ConnOp enumerates the operations a coordinator can command on a node.
type ConnOp int

const (
	// OpEstablish commands establishment from the node to the command's
	// Dst, on routes the node's router selects.
	OpEstablish ConnOp = iota + 1
	// OpRelease commands release of an originated connection.
	OpRelease
)

// String returns "establish" or "release".
func (o ConnOp) String() string {
	switch o {
	case OpEstablish:
		return "establish"
	case OpRelease:
		return "release"
	default:
		return fmt.Sprintf("ConnOp(%d)", int(o))
	}
}

// Register announces a node runtime to the setup coordinator. Seq makes
// re-registrations after a restart distinguishable from retransmissions.
type Register struct {
	Node graph.NodeID
	Seq  uint64
}

// Kind implements Message.
func (Register) Kind() string { return "register" }

func (m Register) fields(c *codec) Message {
	c.tag(tagRegister)
	vint(c, "Register.Node", &m.Node)
	c.uvarint("Register.Seq", &m.Seq)
	return decoded(c, &m)
}

// RegisterAck acknowledges a Register.
type RegisterAck struct {
	Node   graph.NodeID
	OK     bool
	Reason string
}

// Kind implements Message.
func (RegisterAck) Kind() string { return "register-ack" }

func (m RegisterAck) fields(c *codec) Message {
	c.tag(tagRegisterAck)
	vint(c, "RegisterAck.Node", &m.Node)
	c.bool("RegisterAck.OK", &m.OK)
	c.string("RegisterAck.Reason", &m.Reason)
	return decoded(c, &m)
}

// Heartbeat is the node runtime's liveness beacon to the coordinator.
type Heartbeat struct {
	Node graph.NodeID
	Seq  uint64
	// Draining mirrors the node's drain state so the registry stays
	// consistent across coordinator restarts.
	Draining bool
}

// Kind implements Message.
func (Heartbeat) Kind() string { return "heartbeat" }

func (m Heartbeat) fields(c *codec) Message {
	c.tag(tagHeartbeat)
	vint(c, "Heartbeat.Node", &m.Node)
	c.uvarint("Heartbeat.Seq", &m.Seq)
	c.bool("Heartbeat.Draining", &m.Draining)
	return decoded(c, &m)
}

// NodeDown announces a node's death (missed heartbeats or explicit leave)
// or drain to every live node agent. Agents adjacent to the node declare
// the shared links failed, or for a drain hold them down, which floods
// link-state deaths and sends failure reports to the sources of the
// connections crossing them.
type NodeDown struct {
	Node graph.NodeID
	// Reason is "heartbeat-miss", "leave" or "drain".
	Reason string
}

// Kind implements Message.
func (NodeDown) Kind() string { return "node-down" }

func (m NodeDown) fields(c *codec) Message {
	c.tag(tagNodeDown)
	vint(c, "NodeDown.Node", &m.Node)
	c.string("NodeDown.Reason", &m.Reason)
	return decoded(c, &m)
}

// Unschedulable tells a node its scheduling eligibility changed, so its
// readiness probe flips: an unschedulable node carries existing
// connections but is excluded from new routes. Sent at drain start (On)
// and abort (Off).
type Unschedulable struct {
	Node graph.NodeID
	On   bool
}

// Kind implements Message.
func (Unschedulable) Kind() string { return "unschedulable" }

func (m Unschedulable) fields(c *codec) Message {
	c.tag(tagUnschedulable)
	vint(c, "Unschedulable.Node", &m.Node)
	c.bool("Unschedulable.On", &m.On)
	return decoded(c, &m)
}

// EstablishRequest asks the setup coordinator to admit and establish a
// DR-connection for a tenant. The reply goes back to the requesting
// endpoint (Envelope.From).
type EstablishRequest struct {
	Conn   lsdb.ConnID
	Tenant string
	Src    graph.NodeID
	Dst    graph.NodeID
}

// Kind implements Message.
func (EstablishRequest) Kind() string { return "establish-request" }

func (m EstablishRequest) fields(c *codec) Message {
	c.tag(tagEstablishRequest)
	vint(c, "EstablishRequest.Conn", &m.Conn)
	c.string("EstablishRequest.Tenant", &m.Tenant)
	vint(c, "EstablishRequest.Src", &m.Src)
	vint(c, "EstablishRequest.Dst", &m.Dst)
	return decoded(c, &m)
}

// EstablishReply reports the outcome of an EstablishRequest.
type EstablishReply struct {
	Conn    lsdb.ConnID
	OK      bool
	Reason  string
	Primary []graph.NodeID
	Backups [][]graph.NodeID
}

// Kind implements Message.
func (EstablishReply) Kind() string { return "establish-reply" }

func (m EstablishReply) fields(c *codec) Message {
	c.tag(tagEstablishReply)
	vint(c, "EstablishReply.Conn", &m.Conn)
	c.bool("EstablishReply.OK", &m.OK)
	c.string("EstablishReply.Reason", &m.Reason)
	ints(c, "EstablishReply.Primary", &m.Primary)
	slice(c, "EstablishReply.Backups", &m.Backups, ints)
	return decoded(c, &m)
}

// ReleaseRequest asks the coordinator to release a tenant's connection.
type ReleaseRequest struct {
	Conn   lsdb.ConnID
	Tenant string
}

// Kind implements Message.
func (ReleaseRequest) Kind() string { return "release-request" }

func (m ReleaseRequest) fields(c *codec) Message {
	c.tag(tagReleaseRequest)
	vint(c, "ReleaseRequest.Conn", &m.Conn)
	c.string("ReleaseRequest.Tenant", &m.Tenant)
	return decoded(c, &m)
}

// ReleaseReply reports the outcome of a ReleaseRequest.
type ReleaseReply struct {
	Conn   lsdb.ConnID
	OK     bool
	Reason string
}

// Kind implements Message.
func (ReleaseReply) Kind() string { return "release-reply" }

func (m ReleaseReply) fields(c *codec) Message {
	c.tag(tagReleaseReply)
	vint(c, "ReleaseReply.Conn", &m.Conn)
	c.bool("ReleaseReply.OK", &m.OK)
	c.string("ReleaseReply.Reason", &m.Reason)
	return decoded(c, &m)
}

// DrainRequest asks the coordinator to drain a node: mark it
// unschedulable, release the connections that end at it and announce it
// to its neighbours, so the sources of all others move them off it.
type DrainRequest struct {
	Node graph.NodeID
}

// Kind implements Message.
func (DrainRequest) Kind() string { return "drain-request" }

func (m DrainRequest) fields(c *codec) Message {
	c.tag(tagDrainRequest)
	vint(c, "DrainRequest.Node", &m.Node)
	return decoded(c, &m)
}

// DrainReply reports that a drain has started: the connections
// originated or terminated at the node were released (Dropped counts
// them), and the node was announced to its neighbours, whose held links
// make every other connection's source move it off the node.
type DrainReply struct {
	Node    graph.NodeID
	OK      bool
	Reason  string
	Dropped int
}

// Kind implements Message.
func (DrainReply) Kind() string { return "drain-reply" }

func (m DrainReply) fields(c *codec) Message {
	c.tag(tagDrainReply)
	vint(c, "DrainReply.Node", &m.Node)
	c.bool("DrainReply.OK", &m.OK)
	c.string("DrainReply.Reason", &m.Reason)
	vint(c, "DrainReply.Dropped", &m.Dropped)
	return decoded(c, &m)
}

// ConnCommand carries one coordinator-driven operation to the source
// node's agent. For OpEstablish the node's router selects the routes on
// its own link-state view, as the paper's source does (draining and dead
// nodes are avoided by link state: their neighbours advertise the links
// to them empty), and signals them hop-by-hop with its usual retry/backoff
// discipline. OpEstablish is idempotent: a connection the router holds
// already is answered with the routes it holds now. Primary and Backups
// are unread and the coordinator sends them empty; they keep their place
// in the layout because the wire-codec probe of the benchmark
// (bench/cpload.go) still fills them. Retransmissions reuse Seq so the
// agent's dedup replays the recorded result instead of re-executing. Low
// is the coordinator's low-water mark, as Setup.Low is a source router's:
// the agent keeps a command's result only while its Seq is above the
// highest Low it has seen, and ignores a command at or below it.
type ConnCommand struct {
	Op      ConnOp
	Conn    lsdb.ConnID
	Dst     graph.NodeID
	Primary []graph.NodeID
	Backups [][]graph.NodeID
	Seq     uint64
	Low     uint64
}

// Kind implements Message.
func (ConnCommand) Kind() string { return "conn-command" }

func (m ConnCommand) fields(c *codec) Message {
	c.tag(tagConnCommand)
	vint(c, "ConnCommand.Op", &m.Op)
	vint(c, "ConnCommand.Conn", &m.Conn)
	vint(c, "ConnCommand.Dst", &m.Dst)
	ints(c, "ConnCommand.Primary", &m.Primary)
	slice(c, "ConnCommand.Backups", &m.Backups, ints)
	c.uvarint("ConnCommand.Seq", &m.Seq)
	c.uvarint("ConnCommand.Low", &m.Low)
	return decoded(c, &m)
}

// ConnCommandResult reports a ConnCommand's outcome back to the
// coordinator, echoing Seq. On successful establishment Primary and
// Backups are the channels the router holds (a backup rejected mid-path
// is not among them).
type ConnCommandResult struct {
	Conn    lsdb.ConnID
	Seq     uint64
	OK      bool
	Reason  string
	Primary []graph.NodeID
	Backups [][]graph.NodeID
}

// Kind implements Message.
func (ConnCommandResult) Kind() string { return "conn-command-result" }

func (m ConnCommandResult) fields(c *codec) Message {
	c.tag(tagConnCommandResult)
	vint(c, "ConnCommandResult.Conn", &m.Conn)
	c.uvarint("ConnCommandResult.Seq", &m.Seq)
	c.bool("ConnCommandResult.OK", &m.OK)
	c.string("ConnCommandResult.Reason", &m.Reason)
	ints(c, "ConnCommandResult.Primary", &m.Primary)
	slice(c, "ConnCommandResult.Backups", &m.Backups, ints)
	return decoded(c, &m)
}
