package proto_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/proto"
)

// Frame tags of the messages the hostile inputs are built from (the tag
// values are the wire format; wire.golden pins them).
const (
	tagLSUpdate      = 2
	tagSetup         = 3
	tagFailureReport = 6
	tagHeartbeat     = 11
	tagNodeDown      = 12
	tagUnschedulable = 13
	// Tags 14 and 15 are reserved: they named the retired route query and
	// reply.
	tagConnCommandResult = 23
)

// wire builds a payload from parts: ints are zigzag varints, uint64s
// uvarints, bytes and strings go in verbatim.
func wire(parts ...any) []byte {
	var b []byte
	for _, p := range parts {
		switch v := p.(type) {
		case int:
			b = binary.AppendVarint(b, int64(v))
		case uint64:
			b = binary.AppendUvarint(b, v)
		case byte:
			b = append(b, v)
		case []byte:
			b = append(b, v...)
		case string:
			b = append(b, v...)
		}
	}
	return b
}

// envelope prefixes a payload with From=1, To=2 and the message tag.
func envelope(tag byte, parts ...any) []byte {
	return append(wire(1, 2, tag), wire(parts...)...)
}

// TestHostileInputs gives each check the decoder makes an input that only
// that check rejects, for every kind of field that makes it.
func TestHostileInputs(t *testing.T) {
	const huge = uint64(proto.MaxWireSlice + 1)
	zeros := make([]byte, huge) // huge one-byte elements: only the cap rejects the count
	overlong := bytes.Repeat([]byte{0x80}, 11)
	advert := wire(4, 10, 5, 2, uint64(2), []byte{0xff, 0x01}) // Link, AvailPrim, AvailBackup, Norm, CV

	tests := []struct {
		name      string
		data      []byte
		truncated bool // errors.Is(err, ErrTruncated), naming field
		field     string
	}{
		// Slice counts above maxWireSlice, with enough bytes behind them.
		{"ints count over cap", envelope(tagSetup, 7, 2, huge, zeros, 0, uint64(0), uint64(0), uint64(0)), true, "Setup.Route"},
		{"uvarints count over cap", envelope(tagFailureReport, 9, uint64(0), huge, zeros), true, "FailureReport.Traces"},
		{"route lists count over cap", envelope(tagConnCommandResult, 1, uint64(1), byte(1), uint64(0), uint64(0), huge, zeros), true, "ConnCommandResult.Backups"},
		{"adverts count over cap", envelope(tagLSUpdate, 2, uint64(9), huge, zeros), true, "LSUpdate.Links"},

		// Slice counts above the bytes that remain.
		{"ints count over payload", envelope(tagSetup, 7, 2, uint64(5), 1, 2), true, "Setup.Route"},
		{"uvarints count over payload", envelope(tagFailureReport, 9, uint64(0), uint64(3), uint64(1)), true, "FailureReport.Traces"},
		{"route lists count over payload", envelope(tagConnCommandResult, 1, uint64(1), byte(1), uint64(0), uint64(0), uint64(4), uint64(0)), true, "ConnCommandResult.Backups"},
		{"inner route count over payload", envelope(tagConnCommandResult, 1, uint64(1), byte(1), uint64(0), uint64(0), uint64(1), uint64(9), 1), true, "ConnCommandResult.Backups"},
		{"adverts count over payload", envelope(tagLSUpdate, 2, uint64(9), uint64(3), uint64(0)), true, "LSUpdate.Links"},

		// Byte lengths above the bytes that remain.
		{"string length over payload", envelope(tagNodeDown, 2, uint64(10), "abc"), true, "NodeDown.Reason"},
		{"bytes length over payload", envelope(tagLSUpdate, 2, uint64(9), uint64(1), uint64(8), 4, 10, 5, 2, uint64(9), []byte{1, 2, 3}), true, "LinkAdvert.CV"},
		{"advert length over payload", envelope(tagLSUpdate, 2, uint64(9), uint64(1), uint64(200), advert), true, "LSUpdate.Links"},

		// A nested advert is held to its own length, both ways.
		{"advert shorter than its fields", envelope(tagLSUpdate, 2, uint64(9), uint64(1), uint64(len(advert)-1), advert), true, "LinkAdvert.CV"},
		{"advert longer than its fields", envelope(tagLSUpdate, 2, uint64(9), uint64(1), uint64(len(advert)+1), advert, byte(0)), false, "trailing"},
		{"empty advert", envelope(tagLSUpdate, 2, uint64(9), uint64(1), uint64(0)), true, "LinkAdvert.Link"},

		// Bool bytes other than 0 and 1.
		{"bool byte 2", envelope(tagUnschedulable, 2, byte(2)), true, "Unschedulable.On"},
		{"bool byte 0xff after fields", envelope(tagHeartbeat, 4, uint64(32), byte(0xff)), true, "Heartbeat.Draining"},

		// Varints that overflow 64 bits.
		{"overlong uvarint", envelope(tagHeartbeat, 4, overlong, byte(0)), true, "Heartbeat.Seq"},
		{"overlong varint", envelope(tagNodeDown, overlong), true, "NodeDown.Node"},
		{"overlong envelope header", overlong, true, "Envelope.From"},

		// Varints past their field type: node and link IDs are 32-bit, so
		// 2³²+3 must not decode as ID 3.
		{"node ID 2^32+3", envelope(tagNodeDown, 1<<32+3, uint64(0)), false, "NodeDown.Node = 4294967299 out of range"},
		{"node ID past MaxInt32", envelope(tagNodeDown, math.MaxInt32+1, uint64(0)), false, "NodeDown.Node = 2147483648 out of range"},
		{"node ID below MinInt32", envelope(tagNodeDown, math.MinInt32-1, uint64(0)), false, "NodeDown.Node = -2147483649 out of range"},
		{"route node 2^32+3", envelope(tagSetup, 7, 2, uint64(2), 1, 1<<32+3, 0, uint64(0), uint64(0), uint64(0)), false, "Setup.Route = 4294967299 out of range"},
		{"LSET link 2^32+3", envelope(tagSetup, 7, 2, uint64(2), 1, 2, 0, uint64(1), 1<<32+3, uint64(0), uint64(0)), false, "Setup.PrimaryLSET = 4294967299 out of range"},

		// Tags and trailers.
		{"no tag", wire(1, 2), true, "Envelope.Msg"},
		{"tag 0", envelope(0), false, "unknown message tag 0"},
		{"reserved tag 14", envelope(14), false, "unknown message tag 14"},
		{"reserved tag 15", envelope(15), false, "unknown message tag 15"},
		{"tag past the registry", envelope(24), false, "unknown message tag 24"},
		{"one trailing byte", envelope(tagUnschedulable, 2, byte(1), byte(0)), false, "1 trailing bytes"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var env proto.Envelope
			err := env.UnmarshalBinary(tt.data)
			if err == nil {
				t.Fatalf("decoded hostile input as %#v", env)
			}
			if errors.Is(err, proto.ErrTruncated) != tt.truncated || !strings.Contains(err.Error(), tt.field) {
				t.Errorf("error %q: want ErrTruncated=%v naming %q", err, tt.truncated, tt.field)
			}
			if env.Msg != nil {
				t.Errorf("failed decode left a message behind: %#v", env.Msg)
			}
		})
	}
}

// TestIDFieldBounds decodes the extreme IDs a 32-bit field holds.
func TestIDFieldBounds(t *testing.T) {
	for _, id := range []graph.NodeID{math.MinInt32, math.MaxInt32} {
		want := proto.Envelope{From: 1, To: 2, Msg: proto.NodeDown{Node: id}}
		var got proto.Envelope
		if err := got.UnmarshalBinary(envelope(tagNodeDown, int(id), uint64(0))); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("node %d: decoded %#v, %v", id, got, err)
		}
	}
}

// TestTrailingByteEveryMessage appends one byte to every message's valid
// encoding; each must then be rejected.
func TestTrailingByteEveryMessage(t *testing.T) {
	for _, msg := range sampleMessages(t) {
		data, err := (&proto.Envelope{From: 1, To: 2, Msg: msg}).MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", msg.Kind(), err)
		}
		var got proto.Envelope
		if err := got.UnmarshalBinary(append(data, 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Errorf("%s: one trailing byte: got %v, want a trailing-bytes error", msg.Kind(), err)
		}
	}
}

// TestNestedAdvertLength checks the in-place encoding of LSUpdate.Links
// against the layout spelled out by hand, across advert sizes whose
// length prefix takes one, two and three bytes.
func TestNestedAdvertLength(t *testing.T) {
	for _, cvLen := range []int{0, 1, 121, 122, 123, 200, 16384, 20000} {
		cv := bytes.Repeat([]byte{0xa5}, cvLen)
		if cvLen == 0 {
			cv = nil
		}
		msg := proto.LSUpdate{Origin: 3, Seq: 42, Links: []proto.LinkAdvert{
			{Link: 2, AvailPrim: 1 << 20, AvailBackup: 7, Norm: 3, CV: cv},
			{Link: 11, Norm: -1},
		}}
		first := wire(2, 1<<20, 7, 3, uint64(cvLen), cv)
		second := wire(11, 0, 0, -1, uint64(0))
		want := envelope(tagLSUpdate, 3, uint64(42), uint64(2), uint64(len(first)), first, uint64(len(second)), second, byte(0))

		env := proto.Envelope{From: 1, To: 2, Msg: msg}
		got, err := env.MarshalBinary()
		if err != nil {
			t.Fatalf("cv %d: marshal: %v", cvLen, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cv %d: advert of %d bytes encoded as\n% x\nwant\n% x", cvLen, len(first), got[:min(len(got), 24)], want[:min(len(want), 24)])
		}
		var back proto.Envelope
		if err := back.UnmarshalBinary(got); err != nil {
			t.Fatalf("cv %d: unmarshal: %v", cvLen, err)
		}
		if !reflect.DeepEqual(back, env) {
			t.Errorf("cv %d: round trip mismatch", cvLen)
		}
	}
}

// TestDecodeCopiesInput: a decoded message must not alias the buffer it
// was decoded from (transports reuse theirs).
func TestDecodeCopiesInput(t *testing.T) {
	for _, msg := range sampleMessages(t) {
		env := proto.Envelope{From: 1, To: 2, Msg: msg}
		data, err := env.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got proto.Envelope
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] = 0xee
		}
		if !reflect.DeepEqual(got, env) {
			t.Errorf("%s: decoded value changed when the input buffer was overwritten", msg.Kind())
		}
	}
}

// TestFrameLimit exercises maxFrame (16 MiB) in both directions.
func TestFrameLimit(t *testing.T) {
	hdr := []byte{0x01, 0x00, 0x00, 0x01} // 16 MiB + 1
	if _, err := proto.ReadFrame(bytes.NewReader(hdr)); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("ReadFrame of an oversized header: got %v", err)
	}
	big := proto.LSUpdate{Links: []proto.LinkAdvert{{CV: make([]byte, 1<<24)}}}
	var sink bytes.Buffer
	if err := proto.WriteFrame(&sink, proto.Envelope{Msg: big}); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("WriteFrame of an oversized envelope: got %v", err)
	}
	if sink.Len() != 0 {
		t.Errorf("WriteFrame wrote %d bytes of a frame it rejected", sink.Len())
	}
	// A frame cut short inside its body is an error, not a short message.
	var ok bytes.Buffer
	if err := proto.WriteFrame(&ok, proto.Envelope{From: 1, To: 2, Msg: proto.Setup{Route: []graph.NodeID{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := proto.ReadFrame(bytes.NewReader(ok.Bytes()[:ok.Len()-1])); err == nil {
		t.Error("ReadFrame of a frame cut short succeeded")
	}
}
