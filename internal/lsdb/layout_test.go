package lsdb

import (
	"testing"
	"unsafe"

	"github.com/rtcl/drtp/internal/graph"
)

// TestLayout pins the sizes of the records the simulator holds one of per
// link, per backup-link and per registration: 32-bit graph IDs make a Link
// 16 bytes, a registry entry — an LSET table handle, the connection's ID
// living in the slot — is 4 bytes, an LSET table slot holding the LSET,
// its references and that ID is 40 bytes, a link record holding one APLV
// column, neither a row nor a posting list, is 104 bytes, and a column
// entry — link and count sharing one word — is 4 bytes, the size
// APLVBytes and Footprint count it at. A field that widens any of them
// shows here before it shows in the live heap.
func TestLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"graph.Link", unsafe.Sizeof(graph.Link{}), 16},
		{"lsdb registry entry", unsafe.Sizeof(linkState{}.backups[0]), 4},
		{"lsdb.lsetSlot", unsafe.Sizeof(lsetSlot{}), 40},
		{"lsdb.linkState", unsafe.Sizeof(linkState{}), 104},
		{"lsdb column entry", unsafe.Sizeof(linkState{}.col[0]), 4},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}
