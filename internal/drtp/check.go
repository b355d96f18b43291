package drtp

import (
	"fmt"
	"slices"

	"github.com/rtcl/drtp/internal/graph"
)

// Check re-derives what failure evaluation rests on and returns an error
// naming the first drift it finds, or nil:
//
//   - the establishment order holds every live connection once, at the
//     slot the connection records, with seq strictly increasing, and its
//     released slots are counted;
//   - the primaries lsdb lists on every link are exactly the manager's
//     connections whose Primary crosses the link (a primary reserved under
//     an ID the manager does not own is a drift);
//   - a sweep plan's ranks on every link are the connections affectedBy
//     returns for a failure of that link, in the same order.
//
// It costs O(connections × hops + Σ over links of the primaries on it ×
// their log) and overwrites the evaluation scratch, so it can run after
// every event.
func (m *Manager) Check() error {
	live := 0
	var prev *Connection
	for i, c := range m.order {
		if c == nil {
			continue
		}
		switch {
		case m.conns[c.ID] != c:
			return fmt.Errorf("drtp: establishment slot %d holds connection %d, which is not live", i, c.ID)
		case c.slot != i:
			return fmt.Errorf("drtp: connection %d sits in establishment slot %d but records slot %d", c.ID, i, c.slot)
		case prev != nil && c.seq <= prev.seq:
			return fmt.Errorf("drtp: connection %d (seq %d) follows connection %d (seq %d) in establishment order",
				c.ID, c.seq, prev.ID, prev.seq)
		}
		prev = c
		live++
	}
	if live != len(m.conns) {
		return fmt.Errorf("drtp: establishment order holds %d of the %d live connections", live, len(m.conns))
	}
	if dead := len(m.order) - live; dead != m.dead {
		return fmt.Errorf("drtp: establishment order has %d released slots, the manager counts %d", dead, m.dead)
	}

	db := m.net.DB()
	p := m.planSweep()
	var listed, crossing []ConnID
	for l := graph.LinkID(0); int(l) < m.net.Graph().NumLinks(); l++ {
		ranks := p.on(l)
		listed = db.AppendPrimariesOn(listed[:0], l)
		crossing = crossing[:0]
		for _, r := range ranks {
			crossing = append(crossing, p.conns[r].ID)
		}
		slices.Sort(listed)
		slices.Sort(crossing)
		if !slices.Equal(listed, crossing) {
			return fmt.Errorf("drtp: lsdb lists primaries %v on link %d, the connections crossing it are %v", listed, l, crossing)
		}
		affected := m.affectedBy([]graph.LinkID{l})
		if !slices.EqualFunc(affected, ranks, func(c *Connection, r int32) bool { return c == p.conns[r] }) {
			return fmt.Errorf("drtp: link %d: affectedBy gives %d connections, the sweep plan ranks %v", l, len(affected), ranks)
		}
	}
	return nil
}
