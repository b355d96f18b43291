package scenario

import (
	"testing"
	"unsafe"
)

// TestEventLayout pins the size of a scenario event, most of the heap of
// a paper-scale run: a time, a kind, a connection ID and two 32-bit node
// IDs.
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 32 {
		t.Errorf("scenario.Event is %d bytes, want 32", got)
	}
}
