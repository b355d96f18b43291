package controlplane_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/controlplane"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/telemetry"
	"github.com/rtcl/drtp/internal/topology"
	"github.com/rtcl/drtp/internal/transport"
)

// tcpAttacher builds a loopback TCP mesh covering every topology node
// plus the coordinator's ID, so the whole control plane runs over real
// sockets.
func tcpAttacher(g *graph.Graph) *transport.TCPMesh {
	addrs := make(map[graph.NodeID]string, g.NumNodes()+1)
	for n := 0; n < g.NumNodes(); n++ {
		addrs[graph.NodeID(n)] = "127.0.0.1:0"
	}
	addrs[controlplane.CoordinatorID(g)] = "127.0.0.1:0"
	return transport.NewTCPMesh(addrs)
}

// TestControlPlaneOverTCP runs the full establish/fail/drain cycle over
// loopback TCP: the same wire format and transport the multi-process
// deployment uses.
func TestControlPlaneOverTCP(t *testing.T) {
	ring := telemetry.NewRing(1 << 12)
	g := trident(t)
	mesh := tcpAttacher(g)
	defer mesh.Close()
	cfg := deployConfig(g, ring)
	// deployConfig's 10 ms x 3 detector declares a live node dead when a
	// goroutine on the socket path is descheduled for 30 ms, which a busy
	// machine does: endpoints get excluded, backups die with their nodes.
	// Half a second is a silence only the killed node produces.
	cfg.HeartbeatInterval = 50 * time.Millisecond
	cfg.HeartbeatMiss = 10
	d := deploy(t, cfg, mesh)

	reply, err := d.Node(0).Agent.Request(1, 1)
	if err != nil || !reply.OK {
		t.Fatalf("establish over TCP: err=%v reason=%s", err, reply.Reason)
	}
	mid := reply.Primary[1]

	// Abrupt peer death over TCP: sends to the dead node fail at the
	// socket layer; the heartbeat detector must still drive recovery.
	_ = d.Node(mid).Router.Close()
	waitFor(t, "backup activation over TCP", func() bool {
		info, ok := d.Node(0).Router.Conn(1)
		return ok && info.Switched && !info.Dead
	})

	// The rest of the deployment keeps admitting, around the dead node:
	// the coordinator marks it down before it announces the death, so a
	// request made after the switch excludes it.
	waitFor(t, "coordinator excludes dead node", func() bool { return excluded(d, mid) })
	fresh, err := d.Node(0).Agent.Request(2, 1)
	if err != nil || !fresh.OK {
		t.Fatalf("post-failure establish over TCP: err=%v reason=%s", err, fresh.Reason)
	}
	if contains(fresh.Primary, mid) {
		t.Fatalf("new primary %v transits dead node %d", fresh.Primary, mid)
	}
	if rel, err := d.Node(0).Agent.ReleaseConn(2); err != nil || !rel.OK {
		t.Fatalf("release over TCP: err=%v reason=%s", err, rel.Reason)
	}
}

// throughputConfig is the deployment the throughput benchmark, the heap
// test and the ledger's control-plane workloads run: ample capacity and
// liveness detection kept off the hot path.
func throughputConfig(g *graph.Graph) controlplane.DeployConfig {
	cfg := controlplane.DeployConfig{
		Graph:             g,
		Capacity:          1 << 20,
		UnitBW:            1,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatMiss:     100,
		RPCTimeout:        5 * time.Second,
		RetryLimit:        3,
	}
	cfg.Router.HelloInterval = time.Second
	cfg.Router.HelloMiss = 100
	cfg.Router.LSInterval = 50 * time.Millisecond
	return cfg
}

// BenchmarkEstablishThroughput measures end-to-end connection setup
// throughput (request -> establish command -> hop-by-hop establishment at
// the source -> reply, then release) with N concurrent clients over
// loopback TCP.
func BenchmarkEstablishThroughput(b *testing.B) {
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			g, err := tridentGraph()
			if err != nil {
				b.Fatal(err)
			}
			cfg := throughputConfig(g)
			cfg.Metrics = telemetry.NewRegistry()
			mesh := tcpAttacher(g)
			defer mesh.Close()
			d, err := controlplane.Deploy(cfg, mesh)
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			if err := d.WaitSynced(10 * time.Second); err != nil {
				b.Fatal(err)
			}

			var next atomic.Int64
			var failed atomic.Int64
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			per := b.N / clients
			if per == 0 {
				per = 1
			}
			for w := 0; w < clients; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					agent := d.Node(0).Agent
					for i := 0; i < per; i++ {
						id := lsdb.ConnID(next.Add(1))
						reply, err := agent.Request(id, 1)
						if err != nil || !reply.OK {
							failed.Add(1)
							continue
						}
						if _, err := agent.ReleaseConn(id); err != nil {
							failed.Add(1)
						}
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			total := int64(clients) * int64(per)
			if f := failed.Load(); f > 0 {
				b.Fatalf("%d/%d establishments failed", f, total)
			}
			b.ReportMetric(float64(total)/elapsed.Seconds(), "conns/s")
			// The flood behind the signalling: link-state adverts the five
			// routers originated per cycle, changes the hold-down folded
			// into an advert already pending, and the copies each advert
			// cost on the adjacencies.
			adverts := cfg.Metrics.CounterVec("drtp_router_ls_adverts_total", "", "event")
			originated := float64(adverts.With("originated").Value())
			b.ReportMetric(originated/float64(total), "adverts/conn")
			b.ReportMetric(float64(adverts.With("coalesced").Value())/originated, "coalesced/advert")
			b.ReportMetric(float64(adverts.With("sent").Value())/originated, "sends/advert")
		})
	}
}

// BenchmarkDrain times one drain over loopback TCP on the ledger's
// control-plane topology (12-node Waxman, seed 5) holding conns admitted
// connections spread over every source and destination pair. The drain
// releases the connections that end at the drained node and announces
// it; its neighbours hold their links to it down, and the source of every
// other connection crossing them moves it off: a primary switches and is
// re-protected, a backup is replaced. Time runs from the request until no
// router holds a primary reservation or a backup registration on a link
// to or from the node for a connection not ending there (clearOf).
// lost/drain counts those connections that their source no longer holds
// or reports dead, unprotected/drain the live ones left with no backup
// once re-protection settles.
// Each iteration deploys and loads afresh outside the timer, so run it
// with -benchtime 1x.
func BenchmarkDrain(b *testing.B) {
	for _, conns := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			g, err := topology.Waxman(topology.WaxmanConfig{Nodes: 12, AvgDegree: 3, MinDegree: 2, Seed: 5})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			var dropped, lost, unprotected int
			for i := 0; i < b.N; i++ {
				mesh := tcpAttacher(g)
				d, err := controlplane.Deploy(throughputConfig(g), mesh)
				if err != nil {
					b.Fatal(err)
				}
				if err := d.WaitSynced(10 * time.Second); err != nil {
					b.Fatal(err)
				}
				src := make(map[lsdb.ConnID]graph.NodeID)
				var crossing []lsdb.ConnID
				for id := 0; id < conns; id++ {
					s := id % 12
					dst := (s + 1 + id/12%11) % 12
					reply, err := d.Node(graph.NodeID(s)).Agent.Request(lsdb.ConnID(id+1), graph.NodeID(dst))
					if err != nil || !reply.OK {
						b.Fatalf("establish %d: err=%v reason=%s", id+1, err, reply.Reason)
					}
					if s != 0 && dst != 0 {
						src[lsdb.ConnID(id+1)] = graph.NodeID(s)
						crossing = append(crossing, lsdb.ConnID(id+1))
					}
				}
				b.StartTimer()
				dr, err := d.Node(1).Agent.DrainNode(0)
				if err != nil || !dr.OK {
					b.Fatalf("drain: err=%v reply=%+v", err, dr)
				}
				for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
					err := clearOf(d, 0, crossing...)
					if err == nil {
						break
					}
					if time.Now().After(deadline) {
						b.Fatalf("not clear of node 0 after 30 s: %v", err)
					}
				}
				b.StopTimer()
				dropped += dr.Dropped
				// A switched connection may still be signalling its fresh
				// backup: count once re-protection settles, within a second.
				outcome := func() (lost, unprotected int) {
					for _, id := range crossing {
						switch info, ok := d.Node(src[id]).Router.Conn(id); {
						case !ok || info.Dead:
							lost++
						case len(info.Backups) == 0:
							unprotected++
						}
					}
					return lost, unprotected
				}
				l, u := outcome()
				for deadline := time.Now().Add(time.Second); u > 0 && time.Now().Before(deadline); l, u = outcome() {
					time.Sleep(5 * time.Millisecond)
				}
				lost += l
				unprotected += u
				d.Close()
				mesh.Close()
			}
			b.ReportMetric(float64(dropped)/float64(b.N), "dropped/drain")
			b.ReportMetric(float64(lost)/float64(b.N), "lost/drain")
			b.ReportMetric(float64(unprotected)/float64(b.N), "unprotected/drain")
		})
	}
}
