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

func TestChannelKindString(t *testing.T) {
	if proto.Primary.String() != "primary" || proto.Backup.String() != "backup" {
		t.Fatal("ChannelKind strings wrong")
	}
	if proto.ChannelKind(9).String() == "" {
		t.Fatal("unknown kind empty")
	}
}
