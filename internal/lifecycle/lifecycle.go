// Package lifecycle is the DR-connection lifecycle of the paper's §2.2,
// written once for both tiers: establish (reserve the primary, register
// backups carrying its LSET), switch (activate a backup when the primary
// fails), re-protect (re-register the surviving backups under the new
// primary's LSET, then top protection up) and release. A tier supplies
// only the channel operations: drtp.Manager applies each to its link-state
// database directly, a router signals each hop by hop. The order, the
// rollbacks and the lifecycle telemetry are decided here.
package lifecycle

import (
	"errors"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/telemetry"
)

var (
	// ErrTimeout marks signalling lost on every attempt; the tiers'
	// timeout errors wrap it.
	ErrTimeout = errors.New("signalling timed out")
	// errOverlap refuses a second backup of one connection on a link.
	errOverlap = errors.New("backup shares a link with another backup of the connection")
)

// Conn is a DR-connection's record.
type Conn struct {
	ID  lsdb.ConnID
	Src graph.NodeID
	Dst graph.NodeID
	// Primary carries the traffic: the activated backup after a switch.
	Primary graph.Path
	// Backups are the registered backups in activation-preference order.
	Backups []graph.Path
	// Trace keys the span (telemetry.ConnTrace); zero when untraced.
	Trace uint64
}

// Channels are one tier's channel operations. Reserve, Register and
// Activate are all or nothing. An error wrapping ErrTimeout means the
// signalling was lost; any other error is a rejection.
type Channels interface {
	// Reserve reserves the primary channel along p.
	Reserve(id lsdb.ConnID, trace uint64, p graph.Path) error
	// Register registers backup b carrying primary's links as its LSET.
	Register(id lsdb.ConnID, trace uint64, b, primary graph.Path) error
	// Activate turns registered backup b into the primary channel. A
	// failed activation may leave b registered or released.
	Activate(id lsdb.ConnID, trace uint64, b graph.Path) error
	// Release releases the channel of kind k along p; lossy asks a
	// signalling tier to retransmit, as loss was observed or recovery
	// runs in a degraded network.
	Release(id lsdb.ConnID, trace uint64, k proto.ChannelKind, p graph.Path, lossy bool)
	// ReleaseOutside releases old's primary reservations on the links
	// keep does not traverse.
	ReleaseOutside(id lsdb.ConnID, trace uint64, old, keep graph.Path)
}

// Lifecycle runs the lifecycle over one tier's Channels. It holds no
// per-connection state.
type Lifecycle struct {
	Channels Channels
	Tracer   *telemetry.Tracer
	Scheme   string
	// OptionalBackup admits a connection none of whose backups registered;
	// the paper's policy rejects it.
	OptionalBackup bool
}

// Outcome is an establishment's result: the ConnReject reason ("no-route",
// "signal-timeout", "no-capacity", "no-backup"; empty when established),
// its cause (for "no-backup" the first backup failure, if any), and the
// number of backup candidates that did not register.
type Outcome struct {
	Reason string
	Err    error
	Failed int
}

// Establish sets up c, whose ID, Src and Dst are filled in. route yields
// the primary and the backups to register after it, in order, all chosen
// before anything is reserved. A request without a backup route is
// refused at once, and one none of whose backups registers has its
// primary released again (retransmitted when the backups timed out);
// OptionalBackup admits both.
func (l *Lifecycle) Establish(c *Conn, route func() (graph.Path, []graph.Path, error)) Outcome {
	id := int64(c.ID)
	// The span context costs a hash, so the untraced path skips it.
	if l.Tracer.Enabled() {
		c.Trace = telemetry.ConnTrace(l.Scheme, id)
		l.Tracer.ConnRequest(l.Scheme, c.Trace, id)
	}
	primary, backups, err := route()
	switch {
	case err != nil:
		return l.reject(c, Outcome{Reason: "no-route", Err: err})
	case len(backups) == 0 && !l.OptionalBackup:
		return l.reject(c, Outcome{Reason: "no-backup"})
	}
	if err := l.Channels.Reserve(c.ID, c.Trace, primary); err != nil {
		return l.reject(c, Outcome{Reason: reason(err, "no-capacity"), Err: err})
	}
	l.Tracer.PrimarySetup(l.Scheme, c.Trace, id, primary.Hops())
	c.Primary = primary
	out := l.protect(c, backups, true)
	if len(c.Backups) == 0 && !l.OptionalBackup {
		l.Channels.Release(c.ID, c.Trace, proto.Primary, primary, errors.Is(out.Err, ErrTimeout))
		out.Reason = "no-backup"
		return l.reject(c, out)
	}
	l.Tracer.ConnEstablish(l.Scheme, c.Trace, id, primary.Hops())
	return out
}

func (l *Lifecycle) reject(c *Conn, out Outcome) Outcome {
	l.Tracer.ConnReject(l.Scheme, c.Trace, int64(c.ID), out.Reason)
	return out
}

// reason labels a channel operation's outcome: empty on success,
// "signal-timeout" when the signalling was lost, else rejected.
func reason(err error, rejected string) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrTimeout):
		return "signal-timeout"
	}
	return rejected
}

// protect registers each backup of bs in turn, appending those that
// register to c.Backups; events traces every attempt.
func (l *Lifecycle) protect(c *Conn, bs []graph.Path, events bool) Outcome {
	var out Outcome
	for _, b := range bs {
		if b.Empty() {
			continue
		}
		err := l.register(c, b)
		if events {
			l.Tracer.BackupRegister(l.Scheme, c.Trace, int64(c.ID), b.Hops(), reason(err, "rejected"))
		}
		if err == nil {
			c.Backups = append(c.Backups, b)
			continue
		}
		out.Failed++
		if out.Err == nil {
			out.Err = err
		}
	}
	return out
}

func (l *Lifecycle) register(c *Conn, b graph.Path) error {
	if b.OverlapsAny(c.Backups) {
		return errOverlap
	}
	return l.Channels.Register(c.ID, c.Trace, b, c.Primary)
}

// Switch moves c onto its first backup that activates, in preference
// order: it becomes the primary, the old primary's reservations outside
// it are released, and the other backups stay in c.Backups for Reprotect.
// It reports false, leaving c as it was, when no backup activates.
func (l *Lifecycle) Switch(c *Conn, failedLink int) bool {
	for i, b := range c.Backups {
		if l.Channels.Activate(c.ID, c.Trace, b) != nil {
			continue
		}
		old := c.Primary
		c.Primary = b
		c.Backups = append(c.Backups[:i], c.Backups[i+1:]...)
		l.Channels.ReleaseOutside(c.ID, c.Trace, old, b)
		l.Tracer.BackupActivate(l.Scheme, c.Trace, int64(c.ID), failedLink, "switch")
		return true
	}
	return false
}

// Reprotect restores c's protection after a switch: each surviving
// backup, registered under the failed primary's LSET, is released and
// registered again under the new one's (dropped if it now shares a link
// with the primary), then the fresh backups route returns for c as it now
// stands are registered. It returns the number of backups registered.
func (l *Lifecycle) Reprotect(c *Conn, route func(*Conn) []graph.Path) int {
	survivors := c.Backups
	for _, b := range survivors {
		l.Channels.Release(c.ID, c.Trace, proto.Backup, b, false)
	}
	c.Backups = survivors[:0]
	for _, b := range survivors {
		if b.SharedLinks(c.Primary) == 0 && l.register(c, b) == nil {
			c.Backups = append(c.Backups, b)
		}
	}
	l.protect(c, route(c), false)
	return len(c.Backups)
}

// Release releases every channel of c and closes its span; lossy is
// passed on to Channels.Release.
func (l *Lifecycle) Release(c *Conn, lossy bool) {
	l.Channels.Release(c.ID, c.Trace, proto.Primary, c.Primary, lossy)
	for _, b := range c.Backups {
		l.Channels.Release(c.ID, c.Trace, proto.Backup, b, lossy)
	}
	if len(c.Backups) > 0 {
		l.Tracer.BackupRelease(l.Scheme, c.Trace, int64(c.ID), len(c.Backups))
	}
	l.Tracer.ConnTeardown(l.Scheme, c.Trace, int64(c.ID))
}
