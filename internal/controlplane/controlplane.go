// Package controlplane promotes DRTP connection management into a
// deployable service tier above the per-node routers: a setup
// coordinator that enforces per-tenant admission quotas and commands
// each connection's source to establish or release it, and a node
// registry with heartbeat liveness and graceful drain. As in the paper's
// link-state schemes, the source chooses the routes: the source router
// selects them on its own link-state view, where draining and dead nodes
// show as links advertised empty, and signals them hop by hop with its
// retry/backoff discipline.
//
// The coordinator and the node agents speak the internal/proto control
// messages over the same transport (in-memory switchboard or TCP mesh)
// as the data-plane signalling. The coordinator is addressed with a node
// ID past the topology, CoordinatorID(g); control messages never index
// the graph with it, so topologies stay untouched.
//
// Liveness is layered: the coordinator detects a dead node runtime by
// missed heartbeats and broadcasts proto.NodeDown; agents adjacent to
// the dead node declare their shared links failed, which floods
// link-state deaths through the routers and activates backup channels
// for affected connections — the paper's failure recovery, triggered
// from the control plane. A drain is announced the same way, and the
// neighbours hold their links to the drained node down, so the sources
// move their connections off it. All messaging is at-least-once with
// idempotent processing (sequence-numbered commands, replayed replies),
// so the tier tolerates the same lossy, partitioned transports the
// routers do.
package controlplane

import (
	"errors"
	"fmt"
	"time"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/transport"
)

// CoordinatorID is the transport address of the setup coordinator for a
// topology: the second node ID past the graph. The first is unused; it
// stays free so existing address plans keep their meaning.
func CoordinatorID(g *graph.Graph) graph.NodeID {
	return graph.NodeID(g.NumNodes() + 1)
}

// Attacher is transport.Attacher, under the name the control plane's
// callers know it by.
type Attacher = transport.Attacher

// call runs one request/reply exchange over ep: it awaits the reply keyed
// like want, a reply holding only its correlation field, then sends msg to
// `to` up to attempts times, waiting per after each, until the reply
// arrives. Retransmissions share the key, so a late answer to an earlier
// one still completes the call. A second call for a key in flight is
// refused; a closed endpoint or stop ends the call with ErrClosed.
func call(ep transport.Endpoint, to graph.NodeID, msg, want proto.Message, attempts int, per time.Duration, stop <-chan struct{}) (proto.Message, error) {
	key, _ := proto.ReplyKeyOf(want)
	w, err := transport.Await(ep, key)
	switch {
	case errors.Is(err, transport.ErrAwaited):
		return nil, fmt.Errorf("controlplane: request already in flight: %w", err)
	case err != nil:
		return nil, ErrClosed
	}
	defer w.Done()
	for attempt := 0; attempt < attempts; attempt++ {
		_ = ep.Send(to, msg)
		reply, err := w.Next(per, stop)
		switch {
		case err == nil:
			return reply, nil
		case errors.Is(err, transport.ErrClosed):
			return nil, ErrClosed
		}
	}
	return nil, ErrTimeout
}
