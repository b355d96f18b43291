package proto_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/rtcl/drtp/internal/proto"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire.golden from the current codec")

// TestWireGolden pins the wire format: testdata/wire.golden holds the
// encoding of one fully populated envelope per message type, written by
// the hand-coded per-message codecs this package used to carry. Old and
// new binaries interoperate exactly as long as it matches byte for byte.
func TestWireGolden(t *testing.T) {
	const path = "testdata/wire.golden"
	var got strings.Builder
	for _, msg := range sampleMessages(t) {
		data, err := (&proto.Envelope{From: 1, To: 2, Msg: msg}).MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", msg.Kind(), err)
		}
		fmt.Fprintf(&got, "%s %s\n", msg.Kind(), hex.EncodeToString(data))
	}
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d messages encoded, golden file has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i, line := range wantLines {
		if gotLines[i] != line {
			t.Errorf("wire format moved:\n got %s\nwant %s", gotLines[i], line)
		}
	}

	// The pinned bytes also decode to the values that produced them.
	for i, msg := range sampleMessages(t) {
		_, hexBytes, _ := strings.Cut(wantLines[i], " ")
		data, err := hex.DecodeString(hexBytes)
		if err != nil {
			t.Fatalf("golden line %d: %v", i+1, err)
		}
		var env proto.Envelope
		if err := env.UnmarshalBinary(data); err != nil {
			t.Fatalf("%s: decoding golden bytes: %v", msg.Kind(), err)
		}
		if want := (proto.Envelope{From: 1, To: 2, Msg: msg}); !reflect.DeepEqual(env, want) {
			t.Errorf("%s: golden bytes decode to %#v, want %#v", msg.Kind(), env, want)
		}
		var framed bytes.Buffer
		if err := proto.WriteFrame(&framed, env); err != nil {
			t.Fatalf("%s: write frame: %v", msg.Kind(), err)
		}
		if b := framed.Bytes(); len(b) != 4+len(data) || !bytes.Equal(b[4:], data) ||
			int(binary.BigEndian.Uint32(b)) != len(data) {
			t.Errorf("%s: frame is not a 4-byte big-endian length plus the golden bytes: %x", msg.Kind(), b)
		}
	}
}
