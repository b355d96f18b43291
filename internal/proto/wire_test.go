package proto_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"github.com/rtcl/drtp/internal/proto"
)

// TestEnvelopeWireRoundTrip checks value-identity and byte-identity of the
// codec for every message type.
func TestEnvelopeWireRoundTrip(t *testing.T) {
	for _, msg := range sampleMessages(t) {
		env := proto.Envelope{From: 1, To: 2, Msg: msg}
		data, err := env.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", msg.Kind(), err)
		}
		var got proto.Envelope
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("%s: unmarshal: %v", msg.Kind(), err)
		}
		if !reflect.DeepEqual(env, got) {
			t.Errorf("%s: round trip mismatch:\n got %#v\nwant %#v", msg.Kind(), got, env)
		}
		again, err := got.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", msg.Kind(), err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("%s: encoding not canonical: % x vs % x", msg.Kind(), data, again)
		}
	}
}

// TestWireFraming round-trips envelopes through the length-prefixed frame
// used by the TCP transport.
func TestWireFraming(t *testing.T) {
	var buf bytes.Buffer
	msgs := sampleMessages(t)
	for _, msg := range msgs {
		if err := proto.WriteFrame(&buf, proto.Envelope{From: 4, To: 6, Msg: msg}); err != nil {
			t.Fatalf("%s: write frame: %v", msg.Kind(), err)
		}
	}
	for _, msg := range msgs {
		env, err := proto.ReadFrame(&buf)
		if err != nil {
			t.Fatalf("%s: read frame: %v", msg.Kind(), err)
		}
		if !reflect.DeepEqual(env.Msg, msg) {
			t.Errorf("%s: frame round trip mismatch: %#v", msg.Kind(), env.Msg)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("%d bytes left over after reading all frames", buf.Len())
	}
}

// TestWireTruncation verifies that every proper prefix of an encoded
// envelope fails to decode rather than yielding a half-filled message.
func TestWireTruncation(t *testing.T) {
	for _, msg := range sampleMessages(t) {
		env := proto.Envelope{From: 1, To: 2, Msg: msg}
		data, err := env.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", msg.Kind(), err)
		}
		for n := 0; n < len(data); n++ {
			var got proto.Envelope
			if err := got.UnmarshalBinary(data[:n]); err == nil {
				t.Errorf("%s: decoding %d-byte prefix of %d succeeded", msg.Kind(), n, len(data))
			}
		}
	}
}

// TestUnknownTag rejects frames with an unregistered message tag.
func TestUnknownTag(t *testing.T) {
	var got proto.Envelope
	// From=0, To=0, tag 0xff.
	if err := got.UnmarshalBinary([]byte{0, 0, 0xff}); err == nil {
		t.Fatal("decoding unknown tag succeeded")
	}
}

// FuzzPacketRoundTrip feeds arbitrary bytes to the envelope decoder; any
// input that decodes must re-encode and re-decode to the same value and
// the same canonical bytes.
func FuzzPacketRoundTrip(f *testing.F) {
	for _, msg := range sampleMessages(f) {
		data, err := (&proto.Envelope{From: 1, To: 2, Msg: msg}).MarshalBinary()
		if err != nil {
			f.Fatalf("seed %s: %v", msg.Kind(), err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0xff})
	// The reserved tags, whose messages are retired.
	f.Add(envelope(14))
	f.Add(envelope(15))
	// A node ID a 32-bit field cannot hold, and the largest one it can.
	f.Add(envelope(tagNodeDown, 1<<32+3, uint64(0)))
	f.Add(envelope(tagNodeDown, math.MaxInt32, uint64(0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var env proto.Envelope
		if err := env.UnmarshalBinary(data); err != nil {
			return // invalid inputs just need to be rejected cleanly
		}
		canon, err := env.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of decoded envelope failed: %v", err)
		}
		var again proto.Envelope
		if err := again.UnmarshalBinary(canon); err != nil {
			t.Fatalf("re-decode of canonical bytes failed: %v", err)
		}
		if !reflect.DeepEqual(env, again) {
			t.Fatalf("round trip not stable:\nfirst  %#v\nsecond %#v", env, again)
		}
		canon2, err := again.MarshalBinary()
		if err != nil {
			t.Fatalf("second re-marshal failed: %v", err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("encoding not canonical: % x vs % x", canon, canon2)
		}
	})
}
