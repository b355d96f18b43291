package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
)

// This file is the deterministic binary wire codec. Unlike gob, the
// encoding is byte-stable across processes and Go versions: integers are
// varints (zigzag for signed), strings and byte slices are length-
// prefixed, and repeated fields are count-prefixed. Every message type
// implements encoding.BinaryMarshaler/BinaryUnmarshaler, and the drtplint
// protoroundtrip analyzer cross-checks that each exported field appears
// in both directions.
//
// UnmarshalBinary is strict: trailing bytes are an error, so a round trip
// through the codec is exactly identity on the wire form.

// Message type tags used in the Envelope frame.
const (
	tagHello byte = iota + 1
	tagLSUpdate
	tagSetup
	tagSetupResult
	tagTeardown
	tagFailureReport
	tagActivate
	tagActivateResult
	// Control-plane messages (see control.go).
	tagRegister
	tagRegisterAck
	tagHeartbeat
	tagNodeDown
	tagUnschedulable
	tagRouteQuery
	tagRouteReply
	tagEstablishRequest
	tagEstablishReply
	tagReleaseRequest
	tagReleaseReply
	tagDrainRequest
	tagDrainReply
	tagConnCommand
	tagConnCommandResult
)

// maxWireSlice bounds decoded element counts per slice. The guard is a
// sanity cap against corrupt length prefixes, not a protocol limit.
const maxWireSlice = 1 << 20

// ErrTruncated reports a message that ended before all fields were read.
var ErrTruncated = errors.New("proto: truncated message")

// --- encode helpers ----------------------------------------------------

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}
func appendBytes(b, p []byte) []byte { return append(binary.AppendUvarint(b, uint64(len(p))), p...) }

func appendNodes(b []byte, ns []graph.NodeID) []byte {
	b = binary.AppendUvarint(b, uint64(len(ns)))
	for _, n := range ns {
		b = binary.AppendVarint(b, int64(n))
	}
	return b
}

func appendLinks(b []byte, ls []graph.LinkID) []byte {
	b = binary.AppendUvarint(b, uint64(len(ls)))
	for _, l := range ls {
		b = binary.AppendVarint(b, int64(l))
	}
	return b
}

func appendConns(b []byte, cs []lsdb.ConnID) []byte {
	b = binary.AppendUvarint(b, uint64(len(cs)))
	for _, c := range cs {
		b = binary.AppendVarint(b, int64(c))
	}
	return b
}

func appendUint64s(b []byte, vs []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// --- decode helper -----------------------------------------------------

// wireReader consumes a message payload field by field, latching the
// first error so decode bodies read linearly without per-field checks.
type wireReader struct {
	buf []byte
	err error
}

func (r *wireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrTruncated, what)
	}
}

func (r *wireReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *wireReader) int(what string) int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.buf = r.buf[n:]
	return int(v)
}

func (r *wireReader) bool(what string) bool {
	if r.err != nil {
		return false
	}
	if len(r.buf) == 0 || r.buf[0] > 1 {
		r.fail(what)
		return false
	}
	v := r.buf[0] == 1
	r.buf = r.buf[1:]
	return v
}

func (r *wireReader) string(what string) string {
	return string(r.bytes(what))
}

func (r *wireReader) bytes(what string) []byte {
	n := r.uvarint(what)
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.fail(what)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[:n])
	r.buf = r.buf[n:]
	return out
}

// count reads a slice length and validates it against the remaining
// payload (each element takes at least one byte).
func (r *wireReader) count(what string) int {
	n := r.uvarint(what)
	if r.err != nil {
		return 0
	}
	if n > maxWireSlice || n > uint64(len(r.buf)) {
		r.fail(what)
		return 0
	}
	return int(n)
}

func (r *wireReader) nodes(what string) []graph.NodeID {
	n := r.count(what)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(r.int(what))
	}
	return out
}

func (r *wireReader) links(what string) []graph.LinkID {
	n := r.count(what)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]graph.LinkID, n)
	for i := range out {
		out[i] = graph.LinkID(r.int(what))
	}
	return out
}

func (r *wireReader) conns(what string) []lsdb.ConnID {
	n := r.count(what)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]lsdb.ConnID, n)
	for i := range out {
		out[i] = lsdb.ConnID(r.int(what))
	}
	return out
}

func (r *wireReader) uint64s(what string) []uint64 {
	n := r.count(what)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.uvarint(what)
	}
	return out
}

// finish enforces full consumption of the payload.
func (r *wireReader) finish() error {
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("proto: %d trailing bytes after message", len(r.buf))
	}
	return nil
}

// --- per-message codecs ------------------------------------------------

// MarshalBinary implements encoding.BinaryMarshaler.
func (h *Hello) MarshalBinary() ([]byte, error) {
	b := appendInt(nil, int(h.From))
	b = binary.AppendUvarint(b, h.Seq)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (h *Hello) UnmarshalBinary(data []byte) error {
	r := &wireReader{buf: data}
	h.From = graph.NodeID(r.int("Hello.From"))
	h.Seq = r.uvarint("Hello.Seq")
	return r.finish()
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (la *LinkAdvert) MarshalBinary() ([]byte, error) {
	b := appendInt(nil, int(la.Link))
	b = appendInt(b, la.AvailPrim)
	b = appendInt(b, la.AvailBackup)
	b = appendInt(b, la.Norm)
	b = appendBytes(b, la.CV)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (la *LinkAdvert) UnmarshalBinary(data []byte) error {
	r := &wireReader{buf: data}
	la.Link = graph.LinkID(r.int("LinkAdvert.Link"))
	la.AvailPrim = r.int("LinkAdvert.AvailPrim")
	la.AvailBackup = r.int("LinkAdvert.AvailBackup")
	la.Norm = r.int("LinkAdvert.Norm")
	la.CV = r.bytes("LinkAdvert.CV")
	return r.finish()
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (u *LSUpdate) MarshalBinary() ([]byte, error) {
	b := appendInt(nil, int(u.Origin))
	b = binary.AppendUvarint(b, u.Seq)
	b = binary.AppendUvarint(b, uint64(len(u.Links)))
	for i := range u.Links {
		el, err := u.Links[i].MarshalBinary()
		if err != nil {
			return nil, err
		}
		b = appendBytes(b, el)
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (u *LSUpdate) UnmarshalBinary(data []byte) error {
	r := &wireReader{buf: data}
	u.Origin = graph.NodeID(r.int("LSUpdate.Origin"))
	u.Seq = r.uvarint("LSUpdate.Seq")
	n := r.count("LSUpdate.Links")
	u.Links = nil
	if r.err == nil && n > 0 {
		u.Links = make([]LinkAdvert, n)
		for i := range u.Links {
			el := r.bytes("LSUpdate.Links")
			if r.err != nil {
				break
			}
			if err := u.Links[i].UnmarshalBinary(el); err != nil {
				return err
			}
		}
	}
	return r.finish()
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Setup) MarshalBinary() ([]byte, error) {
	b := appendInt(nil, int(s.Conn))
	b = appendInt(b, int(s.Channel))
	b = appendNodes(b, s.Route)
	b = appendInt(b, s.Hop)
	b = appendLinks(b, s.PrimaryLSET)
	b = binary.AppendUvarint(b, s.Trace)
	b = binary.AppendUvarint(b, s.Seq)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *Setup) UnmarshalBinary(data []byte) error {
	r := &wireReader{buf: data}
	s.Conn = lsdb.ConnID(r.int("Setup.Conn"))
	s.Channel = ChannelKind(r.int("Setup.Channel"))
	s.Route = r.nodes("Setup.Route")
	s.Hop = r.int("Setup.Hop")
	s.PrimaryLSET = r.links("Setup.PrimaryLSET")
	s.Trace = r.uvarint("Setup.Trace")
	s.Seq = r.uvarint("Setup.Seq")
	return r.finish()
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *SetupResult) MarshalBinary() ([]byte, error) {
	b := appendInt(nil, int(s.Conn))
	b = appendInt(b, int(s.Channel))
	b = appendBool(b, s.OK)
	b = appendString(b, s.Reason)
	b = appendInt(b, s.FailedHop)
	b = binary.AppendUvarint(b, s.Seq)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *SetupResult) UnmarshalBinary(data []byte) error {
	r := &wireReader{buf: data}
	s.Conn = lsdb.ConnID(r.int("SetupResult.Conn"))
	s.Channel = ChannelKind(r.int("SetupResult.Channel"))
	s.OK = r.bool("SetupResult.OK")
	s.Reason = r.string("SetupResult.Reason")
	s.FailedHop = r.int("SetupResult.FailedHop")
	s.Seq = r.uvarint("SetupResult.Seq")
	return r.finish()
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (t *Teardown) MarshalBinary() ([]byte, error) {
	b := appendInt(nil, int(t.Conn))
	b = appendInt(b, int(t.Channel))
	b = appendNodes(b, t.Route)
	b = appendInt(b, t.Hop)
	b = appendInt(b, t.UpTo)
	b = binary.AppendUvarint(b, t.Trace)
	b = binary.AppendUvarint(b, t.Seq)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (t *Teardown) UnmarshalBinary(data []byte) error {
	r := &wireReader{buf: data}
	t.Conn = lsdb.ConnID(r.int("Teardown.Conn"))
	t.Channel = ChannelKind(r.int("Teardown.Channel"))
	t.Route = r.nodes("Teardown.Route")
	t.Hop = r.int("Teardown.Hop")
	t.UpTo = r.int("Teardown.UpTo")
	t.Trace = r.uvarint("Teardown.Trace")
	t.Seq = r.uvarint("Teardown.Seq")
	return r.finish()
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (f *FailureReport) MarshalBinary() ([]byte, error) {
	b := appendInt(nil, int(f.Link))
	b = appendConns(b, f.Conns)
	b = appendUint64s(b, f.Traces)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (f *FailureReport) UnmarshalBinary(data []byte) error {
	r := &wireReader{buf: data}
	f.Link = graph.LinkID(r.int("FailureReport.Link"))
	f.Conns = r.conns("FailureReport.Conns")
	f.Traces = r.uint64s("FailureReport.Traces")
	return r.finish()
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (a *Activate) MarshalBinary() ([]byte, error) {
	b := appendInt(nil, int(a.Conn))
	b = appendNodes(b, a.Route)
	b = appendInt(b, a.Hop)
	b = binary.AppendUvarint(b, a.Trace)
	b = binary.AppendUvarint(b, a.Seq)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (a *Activate) UnmarshalBinary(data []byte) error {
	r := &wireReader{buf: data}
	a.Conn = lsdb.ConnID(r.int("Activate.Conn"))
	a.Route = r.nodes("Activate.Route")
	a.Hop = r.int("Activate.Hop")
	a.Trace = r.uvarint("Activate.Trace")
	a.Seq = r.uvarint("Activate.Seq")
	return r.finish()
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (a *ActivateResult) MarshalBinary() ([]byte, error) {
	b := appendInt(nil, int(a.Conn))
	b = appendBool(b, a.OK)
	b = appendString(b, a.Reason)
	b = binary.AppendUvarint(b, a.Seq)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (a *ActivateResult) UnmarshalBinary(data []byte) error {
	r := &wireReader{buf: data}
	a.Conn = lsdb.ConnID(r.int("ActivateResult.Conn"))
	a.OK = r.bool("ActivateResult.OK")
	a.Reason = r.string("ActivateResult.Reason")
	a.Seq = r.uvarint("ActivateResult.Seq")
	return r.finish()
}

// --- envelope ----------------------------------------------------------

// msgTag returns the frame tag of a concrete message value.
func msgTag(m Message) (byte, bool) {
	switch m.(type) {
	case Hello:
		return tagHello, true
	case LSUpdate:
		return tagLSUpdate, true
	case Setup:
		return tagSetup, true
	case SetupResult:
		return tagSetupResult, true
	case Teardown:
		return tagTeardown, true
	case FailureReport:
		return tagFailureReport, true
	case Activate:
		return tagActivate, true
	case ActivateResult:
		return tagActivateResult, true
	case Register:
		return tagRegister, true
	case RegisterAck:
		return tagRegisterAck, true
	case Heartbeat:
		return tagHeartbeat, true
	case NodeDown:
		return tagNodeDown, true
	case Unschedulable:
		return tagUnschedulable, true
	case RouteQuery:
		return tagRouteQuery, true
	case RouteReply:
		return tagRouteReply, true
	case EstablishRequest:
		return tagEstablishRequest, true
	case EstablishReply:
		return tagEstablishReply, true
	case ReleaseRequest:
		return tagReleaseRequest, true
	case ReleaseReply:
		return tagReleaseReply, true
	case DrainRequest:
		return tagDrainRequest, true
	case DrainReply:
		return tagDrainReply, true
	case ConnCommand:
		return tagConnCommand, true
	case ConnCommandResult:
		return tagConnCommandResult, true
	}
	return 0, false
}

// marshalMsg encodes the concrete message behind the interface.
func marshalMsg(m Message) ([]byte, error) {
	switch v := m.(type) {
	case Hello:
		return v.MarshalBinary()
	case LSUpdate:
		return v.MarshalBinary()
	case Setup:
		return v.MarshalBinary()
	case SetupResult:
		return v.MarshalBinary()
	case Teardown:
		return v.MarshalBinary()
	case FailureReport:
		return v.MarshalBinary()
	case Activate:
		return v.MarshalBinary()
	case ActivateResult:
		return v.MarshalBinary()
	case Register:
		return v.MarshalBinary()
	case RegisterAck:
		return v.MarshalBinary()
	case Heartbeat:
		return v.MarshalBinary()
	case NodeDown:
		return v.MarshalBinary()
	case Unschedulable:
		return v.MarshalBinary()
	case RouteQuery:
		return v.MarshalBinary()
	case RouteReply:
		return v.MarshalBinary()
	case EstablishRequest:
		return v.MarshalBinary()
	case EstablishReply:
		return v.MarshalBinary()
	case ReleaseRequest:
		return v.MarshalBinary()
	case ReleaseReply:
		return v.MarshalBinary()
	case DrainRequest:
		return v.MarshalBinary()
	case DrainReply:
		return v.MarshalBinary()
	case ConnCommand:
		return v.MarshalBinary()
	case ConnCommandResult:
		return v.MarshalBinary()
	}
	return nil, fmt.Errorf("proto: no wire codec for message type %T", m)
}

// unmarshalMsg decodes a tagged payload into the matching value type (the
// same dynamic types the in-memory transport passes, so type switches
// downstream are unaffected).
func unmarshalMsg(tag byte, payload []byte) (Message, error) {
	switch tag {
	case tagHello:
		var v Hello
		return v, v.UnmarshalBinary(payload)
	case tagLSUpdate:
		var v LSUpdate
		return v, v.UnmarshalBinary(payload)
	case tagSetup:
		var v Setup
		return v, v.UnmarshalBinary(payload)
	case tagSetupResult:
		var v SetupResult
		return v, v.UnmarshalBinary(payload)
	case tagTeardown:
		var v Teardown
		return v, v.UnmarshalBinary(payload)
	case tagFailureReport:
		var v FailureReport
		return v, v.UnmarshalBinary(payload)
	case tagActivate:
		var v Activate
		return v, v.UnmarshalBinary(payload)
	case tagActivateResult:
		var v ActivateResult
		return v, v.UnmarshalBinary(payload)
	case tagRegister:
		var v Register
		return v, v.UnmarshalBinary(payload)
	case tagRegisterAck:
		var v RegisterAck
		return v, v.UnmarshalBinary(payload)
	case tagHeartbeat:
		var v Heartbeat
		return v, v.UnmarshalBinary(payload)
	case tagNodeDown:
		var v NodeDown
		return v, v.UnmarshalBinary(payload)
	case tagUnschedulable:
		var v Unschedulable
		return v, v.UnmarshalBinary(payload)
	case tagRouteQuery:
		var v RouteQuery
		return v, v.UnmarshalBinary(payload)
	case tagRouteReply:
		var v RouteReply
		return v, v.UnmarshalBinary(payload)
	case tagEstablishRequest:
		var v EstablishRequest
		return v, v.UnmarshalBinary(payload)
	case tagEstablishReply:
		var v EstablishReply
		return v, v.UnmarshalBinary(payload)
	case tagReleaseRequest:
		var v ReleaseRequest
		return v, v.UnmarshalBinary(payload)
	case tagReleaseReply:
		var v ReleaseReply
		return v, v.UnmarshalBinary(payload)
	case tagDrainRequest:
		var v DrainRequest
		return v, v.UnmarshalBinary(payload)
	case tagDrainReply:
		var v DrainReply
		return v, v.UnmarshalBinary(payload)
	case tagConnCommand:
		var v ConnCommand
		return v, v.UnmarshalBinary(payload)
	case tagConnCommandResult:
		var v ConnCommandResult
		return v, v.UnmarshalBinary(payload)
	}
	return nil, fmt.Errorf("proto: unknown message tag %d", tag)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (e *Envelope) MarshalBinary() ([]byte, error) {
	tag, ok := msgTag(e.Msg)
	if !ok {
		return nil, fmt.Errorf("proto: no wire codec for message type %T", e.Msg)
	}
	payload, err := marshalMsg(e.Msg)
	if err != nil {
		return nil, err
	}
	b := appendInt(nil, int(e.From))
	b = appendInt(b, int(e.To))
	b = append(b, tag)
	b = append(b, payload...)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (e *Envelope) UnmarshalBinary(data []byte) error {
	r := &wireReader{buf: data}
	e.From = graph.NodeID(r.int("Envelope.From"))
	e.To = graph.NodeID(r.int("Envelope.To"))
	if r.err != nil {
		return r.err
	}
	if len(r.buf) == 0 {
		return fmt.Errorf("%w: Envelope.Msg", ErrTruncated)
	}
	msg, err := unmarshalMsg(r.buf[0], r.buf[1:])
	if err != nil {
		return err
	}
	e.Msg = msg
	return nil
}

// --- framing -----------------------------------------------------------

// maxFrame bounds one framed envelope on the wire (16 MiB).
const maxFrame = 1 << 24

// WriteFrame writes one length-prefixed envelope to w.
func WriteFrame(w io.Writer, env Envelope) error {
	body, err := env.MarshalBinary()
	if err != nil {
		return err
	}
	if len(body) > maxFrame {
		return fmt.Errorf("proto: frame of %d bytes exceeds limit", len(body))
	}
	frame := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(frame, uint32(len(body)))
	copy(frame[4:], body)
	_, err = w.Write(frame)
	return err
}

// ReadFrame reads one length-prefixed envelope from r.
func ReadFrame(r io.Reader) (Envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Envelope{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return Envelope{}, fmt.Errorf("proto: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Envelope{}, err
	}
	var env Envelope
	if err := env.UnmarshalBinary(body); err != nil {
		return Envelope{}, err
	}
	return env, nil
}
