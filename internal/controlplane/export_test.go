package controlplane

import (
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/proto"
)

// MaxIdleWorkers exposes the bound on parked request goroutines.
const MaxIdleWorkers = maxIdleWorkers

// Call exposes one request/reply exchange.
var Call = call

// Command runs one node-command round trip from the coordinator.
func (c *Coordinator) Command(node graph.NodeID, cmd proto.ConnCommand) (proto.ConnCommandResult, error) {
	return c.command(node, cmd)
}
