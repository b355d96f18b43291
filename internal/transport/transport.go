// Package transport moves DRTP protocol messages between routers. Two
// implementations are provided: an in-memory switchboard for simulations
// and tests, and a TCP mesh framing messages with proto's binary wire
// codec for real deployments.
package transport

import (
	"errors"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/proto"
)

// ErrClosed is returned by Send after the transport endpoint is closed.
var ErrClosed = errors.New("transport: closed")

// ErrUnknownPeer is returned when sending to a node with no endpoint.
var ErrUnknownPeer = errors.New("transport: unknown peer")

// Endpoint is one router's attachment to the transport.
type Endpoint interface {
	// Node returns the ID this endpoint belongs to.
	Node() graph.NodeID
	// Send delivers a message to another node's endpoint. Delivery is
	// asynchronous; Send never blocks on the receiver's processing.
	Send(to graph.NodeID, msg proto.Message) error
	// Recv returns the channel of inbound messages. The channel is
	// closed when the endpoint is closed.
	Recv() <-chan proto.Envelope
	// Close shuts the endpoint down and releases its resources.
	Close() error
}
