package controlplane_test

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/controlplane"
	"github.com/rtcl/drtp/internal/faultinject"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/topology"
	"github.com/rtcl/drtp/internal/transport"
)

// workerFrame marks a request worker in a goroutine dump.
const workerFrame = "controlplane.(*workers).work"

// workersRunning counts the request workers in a goroutine dump.
func workersRunning() int {
	var buf bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&buf, 2)
	n := 0
	for _, g := range bytes.Split(buf.Bytes(), []byte("\n\n")) {
		if bytes.Contains(g, []byte(workerFrame)) {
			n++
		}
	}
	return n
}

// TestWorkersBoundedAfterBurst: a burst of concurrent requests far above
// the idle bound runs on as many workers as it needs; once the deployment
// is quiet, each of the two services the burst went through — the
// coordinator and the source's agent — keeps at most the bound parked,
// and Close leaves no worker.
func TestWorkersBoundedAfterBurst(t *testing.T) {
	g, err := topology.Waxman(topology.WaxmanConfig{Nodes: 12, AvgDegree: 3, MinDegree: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Commands to the source are held back, so the burst's establishments
	// and releases are all in flight at the coordinator at once.
	const src = 0
	sched := &faultinject.Schedule{Seed: 1, Links: []faultinject.LinkRule{
		{From: int(controlplane.CoordinatorID(g)), To: src, Delay: 100},
	}}
	d := deploy(t, throughputConfig(g), faultinject.New(sched, transport.NewMem()))
	agent := d.Node(src).Agent

	const burst = 8 * controlplane.MaxIdleWorkers
	peak := 0
	sampled := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			peak = max(peak, workersRunning())
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, dst := lsdb.ConnID(i+1), graph.NodeID(1+i%(g.NumNodes()-1))
			if reply, err := agent.Request(id, dst); err != nil || !reply.OK {
				errs <- fmt.Errorf("request %d: err=%v reason=%q", id, err, reply.Reason)
				return
			}
			if rel, err := agent.ReleaseConn(id); err != nil || !rel.OK {
				errs <- fmt.Errorf("release %d: err=%v reason=%q", id, err, rel.Reason)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-sampled
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if peak <= 2*controlplane.MaxIdleWorkers {
		t.Fatalf("the burst of %d ran on at most %d workers: it never exceeded what may stay parked", burst, peak)
	}

	waitFor(t, "at most the bound parked per service", func() bool {
		return workersRunning() <= 2*controlplane.MaxIdleWorkers
	})
	d.Close()
	if n := workersRunning(); n != 0 {
		t.Fatalf("%d workers left after Close", n)
	}
}
