package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file is the deterministic binary wire codec. Unlike gob, the
// encoding is byte-stable across processes and Go versions: integers are
// varints (zigzag for signed), strings and byte slices are length-
// prefixed, and repeated fields are count-prefixed.
//
// Every message states its layout once, as a field list: a `fields`
// method that names its frame tag and then each field in wire order.
// The codec runs that one list in both directions — appending when it
// encodes, consuming when it decodes — so a field cannot be written
// without being read back. The only way left to get a layout wrong is to
// leave a struct field out of its list, and TestFieldListsComplete fails
// on that.
//
// Decoding is strict: a short payload, a bool byte above 1, a varint
// outside its field's type, a count past maxWireSlice or past the bytes
// that remain, and trailing bytes are all errors, so a round trip through
// the codec is exactly identity on the wire form.

// Frame tags. The values are the wire format: append, never renumber.
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
	_ // 14, reserved: the retired route query
	_ // 15, reserved: the retired route reply
	tagEstablishRequest
	tagEstablishReply
	tagReleaseRequest
	tagReleaseReply
	tagDrainRequest
	tagDrainReply
	tagConnCommand
	tagConnCommandResult
)

// wireMessage is a Message that states its wire layout.
type wireMessage interface {
	Message
	// fields runs the message's frame tag and then every field, in wire
	// order, through c. The receiver is a copy: decoding fills it and
	// returns it (see decoded); encoding returns nil.
	fields(c *codec) Message
}

// registry is the one list of wire messages. Everything else the codec
// needs comes from a message's own field list: the encoder reaches it
// through the wireMessage interface, and byTag reads each message's tag
// off the first byte it encodes.
var registry = []wireMessage{
	Hello{}, LSUpdate{}, Setup{}, SetupResult{}, Teardown{},
	FailureReport{}, Activate{}, ActivateResult{},
	Register{}, RegisterAck{}, Heartbeat{}, NodeDown{}, Unschedulable{},
	EstablishRequest{}, EstablishReply{}, ReleaseRequest{}, ReleaseReply{},
	DrainRequest{}, DrainReply{},
	ConnCommand{}, ConnCommandResult{},
}

// byTag maps a frame tag to the zero value the decoder fills.
var byTag = func() (t [256]wireMessage) {
	for _, zero := range registry {
		var c codec
		zero.fields(&c)
		if t[c.buf[0]] != nil {
			panic(fmt.Sprintf("proto: %T and %T share frame tag %d", t[c.buf[0]], zero, c.buf[0]))
		}
		t[c.buf[0]] = zero
	}
	return t
}()

// maxWireSlice bounds decoded element counts per slice. The guard is a
// sanity cap against corrupt length prefixes, not a protocol limit.
const maxWireSlice = 1 << 20

// ErrTruncated reports a message that ended before all fields were read.
var ErrTruncated = errors.New("proto: truncated message")

// codec runs field lists. Encoding (dec false) appends each field to buf;
// decoding consumes each field from the front of buf, latching the first
// error so field lists read linearly without per-field checks.
type codec struct {
	buf []byte
	dec bool
	err error
}

// fail latches the first decode error; later fields are then skipped.
func (c *codec) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrTruncated, what)
	}
}

// outOfRange latches a decode error for a varint its field type cannot
// hold.
func (c *codec) outOfRange(what string, x int64) {
	if c.err == nil {
		c.err = fmt.Errorf("proto: %s = %d out of range", what, x)
	}
}

// finish enforces full consumption of the payload (or of a sub-message).
func (c *codec) finish() error {
	if c.err == nil && len(c.buf) != 0 {
		c.err = fmt.Errorf("proto: %d trailing bytes after message", len(c.buf))
	}
	return c.err
}

// tag opens every field list. The decoder has dispatched on the tag
// already and steps over it.
func (c *codec) tag(t byte) {
	if !c.dec {
		c.buf = append(c.buf, t)
	} else if c.err == nil && len(c.buf) > 0 {
		c.buf = c.buf[1:]
	}
}

// decoded closes every field list: it boxes the filled copy for the
// decoder's caller. An encoder has no use for the copy, so none is made.
func decoded[T Message](c *codec, m *T) Message {
	if c.dec {
		return *m
	}
	return nil
}

func (c *codec) uvarint(what string, v *uint64) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, *v)
		return
	}
	x, n := binary.Uvarint(c.buf)
	if c.err != nil || n <= 0 {
		c.fail(what)
		return
	}
	c.buf = c.buf[n:]
	*v = x
}

// vint is a zigzag varint field of any of the protocol's integer types
// (node, link and connection IDs, enums, plain ints): encoding/binary's
// Varint, which is zigzag over Uvarint, kept generic in the field type.
// A decoded value the field type cannot hold is an error, not the value
// truncated: a node ID of 2³²+3 is not node 3.
func vint[T ~int | ~int32 | ~int64](c *codec, what string, v *T) {
	x := int64(*v)
	u := uint64(x<<1) ^ uint64(x>>63)
	c.uvarint(what, &u)
	x = int64(u>>1) ^ -int64(u&1)
	if int64(T(x)) != x {
		c.outOfRange(what, x)
		return
	}
	*v = T(x)
}

func (c *codec) bool(what string, v *bool) {
	if !c.dec {
		b := byte(0)
		if *v {
			b = 1
		}
		c.buf = append(c.buf, b)
		return
	}
	if c.err != nil || len(c.buf) == 0 || c.buf[0] > 1 {
		c.fail(what)
		return
	}
	*v = c.buf[0] == 1
	c.buf = c.buf[1:]
}

// length reads a byte-length prefix and validates it against the
// remaining payload.
func (c *codec) length(what string) int {
	var n uint64
	c.uvarint(what, &n)
	if n > uint64(len(c.buf)) {
		c.fail(what)
		return 0
	}
	return int(n)
}

func (c *codec) string(what string, v *string) {
	if !c.dec {
		c.buf = append(binary.AppendUvarint(c.buf, uint64(len(*v))), *v...)
		return
	}
	n := c.length(what)
	*v = string(c.buf[:n])
	c.buf = c.buf[n:]
}

func (c *codec) bytes(what string, v *[]byte) {
	if !c.dec {
		c.buf = append(binary.AppendUvarint(c.buf, uint64(len(*v))), *v...)
		return
	}
	if n := c.length(what); n > 0 {
		*v = append([]byte(nil), c.buf[:n]...)
		c.buf = c.buf[n:]
	}
}

// slice is a count-prefixed repeated field whose elements are laid out by
// elem. The decoder validates the count against maxWireSlice and against
// the remaining payload (each element takes at least one byte) before it
// allocates; an empty slice decodes as nil.
func slice[T any](c *codec, what string, v *[]T, elem func(*codec, string, *T)) {
	n := uint64(len(*v))
	c.uvarint(what, &n)
	if c.dec {
		if n > maxWireSlice || n > uint64(len(c.buf)) {
			c.fail(what)
		}
		if c.err != nil || n == 0 {
			return
		}
		*v = make([]T, n)
	}
	for i := range *v {
		if elem(c, what, &(*v)[i]); c.err != nil {
			return
		}
	}
}

// ints is a slice of vint elements: routes, LSETs, connection lists.
func ints[T ~int | ~int32 | ~int64](c *codec, what string, v *[]T) { slice(c, what, v, vint[T]) }

// sub runs fields as a length-prefixed sub-message, in place: the encoder
// slides what fields appended up to make room for its length, the decoder
// narrows the payload to the sub-message and requires fields to use it up.
func (c *codec) sub(what string, fields func()) {
	if c.dec {
		n := c.length(what)
		after := c.buf[n:]
		c.buf = c.buf[:n]
		fields()
		c.finish()
		c.buf = after
		return
	}
	start := len(c.buf)
	fields()
	var prefix [binary.MaxVarintLen64]byte
	n := len(c.buf) - start
	k := binary.PutUvarint(prefix[:], uint64(n))
	c.buf = append(c.buf, prefix[:k]...)
	copy(c.buf[start+k:], c.buf[start:start+n])
	copy(c.buf[start:], prefix[:k])
}

// message is the tagged message of an envelope: the encoder dispatches
// on the dynamic type, the decoder on the tag byte, and both end up in
// the same field list. Decoding yields the same value types the
// in-memory transport passes, so type switches downstream are unaffected.
func (c *codec) message(m *Message) {
	if !c.dec {
		wm, ok := (*m).(wireMessage)
		if !ok {
			c.err = fmt.Errorf("proto: no wire codec for message type %T", *m)
			return
		}
		wm.fields(c)
		return
	}
	if c.err != nil || len(c.buf) == 0 {
		c.fail("Envelope.Msg")
		return
	}
	zero := byTag[c.buf[0]]
	if zero == nil {
		c.err = fmt.Errorf("proto: unknown message tag %d", c.buf[0])
		return
	}
	// The message is the last thing in an envelope: it must use it up.
	if msg := zero.fields(c); c.finish() == nil {
		*m = msg
	}
}

func (e *Envelope) fields(c *codec) {
	vint(c, "Envelope.From", &e.From)
	vint(c, "Envelope.To", &e.To)
	c.message(&e.Msg)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (e *Envelope) MarshalBinary() ([]byte, error) {
	c := codec{buf: make([]byte, 0, frameHint)}
	if e.fields(&c); c.err != nil {
		return nil, c.err
	}
	return c.buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (e *Envelope) UnmarshalBinary(data []byte) error {
	c := codec{buf: data, dec: true}
	e.fields(&c)
	return c.finish()
}

// --- framing -----------------------------------------------------------

// maxFrame bounds one framed envelope on the wire (16 MiB).
const maxFrame = 1 << 24

// frameHint is an encode buffer's initial capacity: all but LSUpdates fit.
const frameHint = 64

// WriteFrame writes one length-prefixed envelope to w, header and
// envelope encoded into the one buffer it hands to w.
func WriteFrame(w io.Writer, env Envelope) error {
	c := codec{buf: make([]byte, 4, frameHint)}
	if env.fields(&c); c.err != nil {
		return c.err
	}
	n := len(c.buf) - 4
	if n > maxFrame {
		return fmt.Errorf("proto: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(c.buf, uint32(n))
	_, err := w.Write(c.buf)
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
