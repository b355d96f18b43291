package lifecycle_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lifecycle"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/telemetry"
	"github.com/rtcl/drtp/internal/topology"
)

// fakeChannels records every channel operation as a line and fails the
// ones named in fail.
type fakeChannels struct {
	g    *graph.Graph
	fail map[string]error
	ops  []string
}

func (f *fakeChannels) do(op string) error {
	f.ops = append(f.ops, op)
	return f.fail[op]
}

func (f *fakeChannels) nodes(p graph.Path) string { return fmt.Sprint(p.Nodes(f.g)) }

func (f *fakeChannels) Reserve(_ lsdb.ConnID, _ uint64, p graph.Path) error {
	return f.do("reserve " + f.nodes(p))
}

func (f *fakeChannels) Register(_ lsdb.ConnID, _ uint64, b, primary graph.Path) error {
	return f.do("register " + f.nodes(b) + " lset " + f.nodes(primary))
}

func (f *fakeChannels) Activate(_ lsdb.ConnID, _ uint64, b graph.Path) error {
	return f.do("activate " + f.nodes(b))
}

func (f *fakeChannels) Release(_ lsdb.ConnID, _ uint64, k proto.ChannelKind, p graph.Path, lossy bool) {
	_ = f.do(fmt.Sprintf("release %s %s lossy=%v", k, f.nodes(p), lossy))
}

func (f *fakeChannels) ReleaseOutside(_ lsdb.ConnID, _ uint64, old, keep graph.Path) {
	_ = f.do("release-outside " + f.nodes(old) + " keep " + f.nodes(keep))
}

var (
	errRejected = errors.New("rejected mid-path")
	errLost     = fmt.Errorf("lost: %w", lifecycle.ErrTimeout)
)

func TestLifecycle(t *testing.T) {
	// Four routes 0 -> 1: direct, via 2, via 3-4, via 5.
	g, err := topology.FromEdgeList(6, [][2]int{{0, 1}, {0, 2}, {2, 1}, {0, 3}, {3, 4}, {4, 1}, {0, 5}, {5, 1}})
	if err != nil {
		t.Fatal(err)
	}
	path := func(nodes ...graph.NodeID) graph.Path {
		p, err := graph.PathFromNodes(g, nodes)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p, b1, b2, b3 := path(0, 1), path(0, 2, 1), path(0, 3, 4, 1), path(0, 5, 1)

	// establish runs an establishment routed onto primary p with backups
	// b1, b2, in that order.
	establish := func(l *lifecycle.Lifecycle, c *lifecycle.Conn) string {
		out := l.Establish(c, func() (graph.Path, []graph.Path, error) { return p, []graph.Path{b1, b2}, nil })
		return fmt.Sprintf("reason=%q failed=%d backups=%d", out.Reason, out.Failed, len(c.Backups))
	}
	// switchOver fails the established primary p (backups b1, b2): the
	// connection switches and is re-protected with top-up route b3, or is
	// dropped.
	switchOver := func(l *lifecycle.Lifecycle, c *lifecycle.Conn) string {
		c.Primary, c.Backups = p, []graph.Path{b1, b2}
		if !l.Switch(c, 7) {
			l.Release(c, true)
			return "dropped"
		}
		n := l.Reprotect(c, func(*lifecycle.Conn) []graph.Path { return []graph.Path{b3} })
		return fmt.Sprintf("switched onto %v, %d backups registered", c.Primary.Nodes(g), n)
	}

	cases := []struct {
		name       string
		run        func(*lifecycle.Lifecycle, *lifecycle.Conn) string
		fail       map[string]error
		want       string
		wantOps    []string
		wantEvents []string
	}{{
		name: "no backup route",
		run: func(l *lifecycle.Lifecycle, c *lifecycle.Conn) string {
			out := l.Establish(c, func() (graph.Path, []graph.Path, error) { return p, nil, nil })
			return fmt.Sprintf("reason=%q", out.Reason)
		},
		want:       `reason="no-backup"`,
		wantEvents: []string{"conn-request", "conn-reject:no-backup"},
	}, {
		name: "primary rejected",
		run:  establish,
		fail: map[string]error{"reserve [0 1]": errRejected},
		want: `reason="no-capacity" failed=0 backups=0`,
		wantOps: []string{
			"reserve [0 1]",
		},
		wantEvents: []string{"conn-request", "conn-reject:no-capacity"},
	}, {
		name: "primary signalling lost",
		run:  establish,
		fail: map[string]error{"reserve [0 1]": errLost},
		want: `reason="signal-timeout" failed=0 backups=0`,
		wantOps: []string{
			"reserve [0 1]",
		},
		wantEvents: []string{"conn-request", "conn-reject:signal-timeout"},
	}, {
		name: "backup rejected, next registers",
		run:  establish,
		fail: map[string]error{"register [0 2 1] lset [0 1]": errRejected},
		want: `reason="" failed=1 backups=1`,
		wantOps: []string{
			"reserve [0 1]",
			"register [0 2 1] lset [0 1]",
			"register [0 3 4 1] lset [0 1]",
		},
		wantEvents: []string{"conn-request", "primary-setup", "backup-register:rejected", "backup-register",
			"conn-establish"},
	}, {
		name: "every backup rejected",
		run:  establish,
		fail: map[string]error{
			"register [0 2 1] lset [0 1]":   errRejected,
			"register [0 3 4 1] lset [0 1]": errRejected,
		},
		want: `reason="no-backup" failed=2 backups=0`,
		wantOps: []string{
			"reserve [0 1]",
			"register [0 2 1] lset [0 1]",
			"register [0 3 4 1] lset [0 1]",
			"release primary [0 1] lossy=false",
		},
		wantEvents: []string{"conn-request", "primary-setup", "backup-register:rejected",
			"backup-register:rejected", "conn-reject:no-backup"},
	}, {
		name: "backup signalling lost",
		run:  establish,
		fail: map[string]error{
			"register [0 2 1] lset [0 1]":   errLost,
			"register [0 3 4 1] lset [0 1]": errRejected,
		},
		want: `reason="no-backup" failed=2 backups=0`,
		wantOps: []string{
			"reserve [0 1]",
			"register [0 2 1] lset [0 1]",
			"register [0 3 4 1] lset [0 1]",
			"release primary [0 1] lossy=true",
		},
		wantEvents: []string{"conn-request", "primary-setup", "backup-register:signal-timeout",
			"backup-register:rejected", "conn-reject:no-backup"},
	}, {
		name: "first backup wins, survivor re-registered, topped up",
		run:  switchOver,
		want: "switched onto [0 2 1], 2 backups registered",
		wantOps: []string{
			"activate [0 2 1]",
			"release-outside [0 1] keep [0 2 1]",
			"release backup [0 3 4 1] lossy=false",
			"register [0 3 4 1] lset [0 2 1]",
			"register [0 5 1] lset [0 2 1]",
		},
		wantEvents: []string{"backup-activate:switch"},
	}, {
		name: "contended first backup becomes a survivor",
		run:  switchOver,
		fail: map[string]error{"activate [0 2 1]": errRejected},
		want: "switched onto [0 3 4 1], 2 backups registered",
		wantOps: []string{
			"activate [0 2 1]",
			"activate [0 3 4 1]",
			"release-outside [0 1] keep [0 3 4 1]",
			"release backup [0 2 1] lossy=false",
			"register [0 2 1] lset [0 3 4 1]",
			"register [0 5 1] lset [0 3 4 1]",
		},
		wantEvents: []string{"backup-activate:switch"},
	}, {
		name: "re-protection rejected keeps the switch",
		run:  switchOver,
		fail: map[string]error{
			"register [0 3 4 1] lset [0 2 1]": errRejected,
			"register [0 5 1] lset [0 2 1]":   errLost,
		},
		want: "switched onto [0 2 1], 0 backups registered",
		wantOps: []string{
			"activate [0 2 1]",
			"release-outside [0 1] keep [0 2 1]",
			"release backup [0 3 4 1] lossy=false",
			"register [0 3 4 1] lset [0 2 1]",
			"register [0 5 1] lset [0 2 1]",
		},
		wantEvents: []string{"backup-activate:switch"},
	}, {
		name: "every activation fails",
		run:  switchOver,
		fail: map[string]error{"activate [0 2 1]": errRejected, "activate [0 3 4 1]": errLost},
		want: "dropped",
		wantOps: []string{
			"activate [0 2 1]",
			"activate [0 3 4 1]",
			"release primary [0 1] lossy=true",
			"release backup [0 2 1] lossy=true",
			"release backup [0 3 4 1] lossy=true",
		},
		wantEvents: []string{"backup-release", "conn-teardown"},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ch := &fakeChannels{g: g, fail: tc.fail}
			events := telemetry.NewBuffer()
			l := &lifecycle.Lifecycle{Channels: ch, Tracer: telemetry.NewTracer(events), Scheme: "test"}
			c := &lifecycle.Conn{ID: 1, Src: 0, Dst: 1}
			if got := tc.run(l, c); got != tc.want {
				t.Errorf("outcome %s, want %s", got, tc.want)
			}
			if !reflect.DeepEqual(ch.ops, tc.wantOps) {
				t.Errorf("operations\n%q\nwant\n%q", ch.ops, tc.wantOps)
			}
			var got []string
			for _, e := range events.Events() {
				s := e.Kind.String()
				if e.Reason != "" {
					s += ":" + e.Reason
				}
				got = append(got, s)
			}
			if !reflect.DeepEqual(got, tc.wantEvents) {
				t.Errorf("events\n%q\nwant\n%q", got, tc.wantEvents)
			}
		})
	}
}
