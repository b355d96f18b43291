package router

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/topology"
)

// TestConflictArena drives the view's conflict arena through rows that
// grow, shrink, empty and move, against a model of every link's row:
// after each advert every row reads back as the model holds it, and the
// arena never holds more than twice its live slots, headers and slack
// included. Rows drift upwards, shrink in place and restart empty, so
// slots keep moving, some with slack, and the arena is compacted over and
// over.
func TestConflictArena(t *testing.T) {
	g, err := topology.Waxman(topology.WaxmanConfig{Nodes: 30, AvgDegree: 3, MinDegree: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumLinks()
	v := NewLinkStateView(g, 10, 1, DLSR)
	model := make([][]int32, n)
	r := rand.New(rand.NewSource(1))
	words, compactions := 0, 0
	for step := 0; step < 20000; step++ {
		l := r.Intn(n)
		size := len(model[l]) + 1 + r.Intn(4)
		if r.Intn(3) == 0 {
			size = r.Intn(len(model[l]) + 1) // shrinks in place, leaving slack
		}
		if size > n {
			size = 0
		}
		cv := make([]byte, (n+7)/8)
		for _, j := range r.Perm(n)[:size] {
			cv[j/8] |= 1 << uint(j%8)
		}
		var row []int32
		for j := 0; j < n; j++ {
			if cv[j/8]&(1<<uint(j%8)) != 0 {
				row = append(row, int32(j))
			}
		}
		v.Apply(proto.LinkAdvert{Link: graph.LinkID(l), CV: cv})
		model[l] = row
		live := 0
		for k := range model {
			if got := v.rows.row(k); !slices.Equal(got, model[k]) && len(got)+len(model[k]) > 0 {
				t.Fatalf("step %d: link %d's row reads %v, want %v", step, k, got, model[k])
			}
			if a := v.rows.at[k]; a != 0 {
				live += rowHeader + int(v.rows.arena[a-2])
			}
		}
		if len(v.rows.arena) > 2*live+rowHeader+n {
			t.Fatalf("step %d: arena holds %d words for %d live", step, len(v.rows.arena), live)
		}
		if len(v.rows.arena) < words {
			compactions++
		}
		words = len(v.rows.arena)
	}
	if compactions < 10 {
		t.Errorf("the arena was compacted %d times, want the test to reach at least 10", compactions)
	}
	t.Logf("%d compactions", compactions)
}
