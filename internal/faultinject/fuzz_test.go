package faultinject

import (
	"testing"

	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/topology"
	"github.com/rtcl/drtp/internal/transport"
)

// FuzzChaosSchedule feeds arbitrary bytes through the schedule parser
// and, when one validates, exercises the whole chaos surface with it:
// window expansion on a real graph, encode/parse round-trip, and a burst
// of injected sends. Nothing here may panic, whatever the spec says.
func FuzzChaosSchedule(f *testing.F) {
	f.Add([]byte(sampleSpec))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"seed": -1, "links": [{"from": -1, "to": -1, "drop": 0.99, "dup": 0.99, "reorder": 0.99, "delay": 0.001}]}`))
	f.Add([]byte(`{"crashes": [{"node": 0, "at": 0}], "partitions": [{"group": [0], "at": 0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		// A schedule that passed Validate must survive everything below.
		if _, err := s.Encode(); err != nil {
			t.Fatalf("valid schedule failed to encode: %v", err)
		}
		g, err := topology.FromEdgeList(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
		if err != nil {
			t.Fatal(err)
		}
		ws := s.EdgeWindows(g)
		for i := 1; i < len(ws); i++ {
			if ws[i-1].At > ws[i].At {
				t.Fatalf("EdgeWindows out of order: %+v", ws)
			}
		}
		mem := transport.NewMem()
		defer mem.Close()
		inj := New(s, mem)
		src, err := inj.Attach(0)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := inj.Attach(1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			_ = src.Send(1, proto.Setup{Conn: lsdb.ConnID(i)})
			_ = src.Send(1, proto.Hello{From: 0})
		}
		inj.Flush()
		// Drain whatever made it through; delivery must not be wedged by
		// any schedule.
		for {
			select {
			case <-dst.Recv():
			default:
				_ = dst.Close()
				_ = src.Close()
				return
			}
		}
	})
}
