package proto_test

import (
	"testing"

	"github.com/rtcl/drtp/internal/proto"
)

func TestMessageKinds(t *testing.T) {
	tests := []struct {
		msg  proto.Message
		want string
	}{
		{proto.Hello{}, "hello"},
		{proto.LSUpdate{}, "ls-update"},
		{proto.Setup{}, "setup"},
		{proto.SetupResult{}, "setup-result"},
		{proto.Teardown{}, "teardown"},
		{proto.FailureReport{}, "failure-report"},
		{proto.Activate{}, "activate"},
		{proto.ActivateResult{}, "activate-result"},
	}
	for _, tt := range tests {
		if got := tt.msg.Kind(); got != tt.want {
			t.Errorf("Kind = %q, want %q", got, tt.want)
		}
	}
}

// TestReplyKeyOf: every reply is keyed by its kind and correlation field
// alone, so the full reply and the caller's template meet in one key, and
// no two kinds share a key for the same value.
func TestReplyKeyOf(t *testing.T) {
	replies := []struct{ full, template proto.Message }{
		{proto.SetupResult{Conn: 4, Channel: proto.Backup, OK: true, Seq: 7}, proto.SetupResult{Seq: 7}},
		{proto.ActivateResult{Conn: 4, Reason: "x", Seq: 7}, proto.ActivateResult{Seq: 7}},
		{proto.ConnCommandResult{Conn: 4, Seq: 7, OK: true}, proto.ConnCommandResult{Seq: 7}},
		{proto.EstablishReply{Conn: 7, OK: true}, proto.EstablishReply{Conn: 7}},
		{proto.ReleaseReply{Conn: 7, Reason: "x"}, proto.ReleaseReply{Conn: 7}},
		{proto.DrainReply{Node: 7, Dropped: 2}, proto.DrainReply{Node: 7}},
	}
	seen := make(map[proto.ReplyKey]string)
	for _, r := range replies {
		k, ok := proto.ReplyKeyOf(r.full)
		if !ok {
			t.Fatalf("%s has no reply key", r.full.Kind())
		}
		if tk, _ := proto.ReplyKeyOf(r.template); tk != k {
			t.Errorf("%s: the template's key differs from the reply's", r.full.Kind())
		}
		if other, dup := seen[k]; dup {
			t.Errorf("%s and %s share a key", other, r.full.Kind())
		}
		seen[k] = r.full.Kind()
	}
	for _, m := range []proto.Message{proto.Hello{Seq: 7}, proto.Setup{Seq: 7}, proto.ConnCommand{Seq: 7},
		proto.RegisterAck{Node: 7}, proto.EstablishRequest{Conn: 7}} {
		if _, ok := proto.ReplyKeyOf(m); ok {
			t.Errorf("%s answers no request, yet has a reply key", m.Kind())
		}
	}
}

func TestChannelKindString(t *testing.T) {
	if proto.Primary.String() != "primary" || proto.Backup.String() != "backup" {
		t.Fatal("ChannelKind strings wrong")
	}
	if proto.ChannelKind(9).String() == "" {
		t.Fatal("unknown kind empty")
	}
}
