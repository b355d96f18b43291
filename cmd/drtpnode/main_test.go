package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/router"
	"github.com/rtcl/drtp/internal/topology"
	"github.com/rtcl/drtp/internal/transport"
)

func TestParsePeers(t *testing.T) {
	addrs, err := parsePeers("0=127.0.0.1:7000, 1=127.0.0.1:7001,2=host:99", 3)
	if err != nil {
		t.Fatal(err)
	}
	if addrs[0] != "127.0.0.1:7000" || addrs[2] != "host:99" {
		t.Fatalf("addrs = %v", addrs)
	}
}

func TestParsePeersErrors(t *testing.T) {
	tests := []struct {
		name string
		spec string
	}{
		{"missing entry", "0=a:1,1=b:2"},
		{"bad format", "0:a"},
		{"bad node", "x=a:1,1=b:2,2=c:3"},
		{"out of range", "0=a:1,1=b:2,9=c:3"},
		{"empty address", "0=,1=b:2,2=c:3"},
		{"repeated node", "0=a:1,0=b:2,1=c:3,2=d:4"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := parsePeers(tt.spec, 3); err == nil {
				t.Fatalf("spec %q accepted", tt.spec)
			}
		})
	}
}

// testConsole builds a router cluster over the in-memory transport and
// returns node 0's console, so commands can be exercised without sockets.
func testConsole(t *testing.T) *consoleEnv {
	t.Helper()
	g, err := topology.FromEdgeList(4, [][2]int{{0, 1}, {1, 2}, {0, 3}, {3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	mem := transport.NewMem()
	c, err := router.NewCluster(router.Config{
		Graph:         g,
		Capacity:      10,
		UnitBW:        1,
		HelloInterval: 10 * time.Millisecond,
		LSInterval:    20 * time.Millisecond,
	}, mem)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		_ = mem.Close()
	})
	return &consoleEnv{r: c.Router(0), g: g}
}

func TestExecuteEstablishInfoRelease(t *testing.T) {
	env := testConsole(t)
	var buf bytes.Buffer

	execute(env, "establish 7 2", &buf)
	if !strings.Contains(buf.String(), "established 7") {
		t.Fatalf("output: %s", buf.String())
	}
	buf.Reset()
	execute(env, "info 7", &buf)
	if !strings.Contains(buf.String(), "conn 7: 0 -> 2") {
		t.Fatalf("output: %s", buf.String())
	}
	buf.Reset()
	execute(env, "links", &buf)
	if !strings.Contains(buf.String(), "prime=1") {
		t.Fatalf("output: %s", buf.String())
	}
	buf.Reset()
	execute(env, "release 7", &buf)
	if !strings.Contains(buf.String(), "released 7") {
		t.Fatalf("output: %s", buf.String())
	}
	buf.Reset()
	execute(env, "info 7", &buf)
	if !strings.Contains(buf.String(), "not found") {
		t.Fatalf("output: %s", buf.String())
	}
}

func TestExecuteErrors(t *testing.T) {
	env := testConsole(t)
	tests := []struct {
		cmd  string
		want string
	}{
		{"establish", "usage"},
		{"establish x 2", "bad arguments"},
		{"establish 1 99", "bad arguments"},
		{"release", "usage"},
		{"release z", "bad connection id"},
		{"release 42", "error"},
		{"info", "usage"},
		{"fail 77", "bad neighbor"},
		{"wibble", "unknown command"},
	}
	for _, tt := range tests {
		var buf bytes.Buffer
		execute(env, tt.cmd, &buf)
		if !strings.Contains(buf.String(), tt.want) {
			t.Errorf("%q -> %q, want %q", tt.cmd, buf.String(), tt.want)
		}
	}
}

func TestExecuteFail(t *testing.T) {
	env := testConsole(t)
	var buf bytes.Buffer
	execute(env, "establish 1 2", &buf)
	buf.Reset()
	execute(env, "fail 1", &buf)
	if !strings.Contains(buf.String(), "declared link to 1 failed") {
		t.Fatalf("output: %s", buf.String())
	}
}

func TestConsoleQuit(t *testing.T) {
	env := testConsole(t)
	in := strings.NewReader("links\nquit\n")
	var out bytes.Buffer
	if err := console(env, in, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "> ") {
		t.Fatal("no prompt printed")
	}
}

func TestRunEndToEndTCP(t *testing.T) {
	// Full process path: topology file + TCP peers + console over pipes.
	g, err := topology.Ring(3)
	if err != nil {
		t.Fatal(err)
	}
	topoPath := filepath.Join(t.TempDir(), "topo.json")
	if err := topology.SaveJSON(topoPath, g); err != nil {
		t.Fatal(err)
	}
	peers := "0=127.0.0.1:0,1=127.0.0.1:0,2=127.0.0.1:0"
	// Ephemeral ports cannot cross processes, so only node 0 is started
	// here; establish fails (peers unreachable) but the whole flag,
	// topology and console path is exercised.
	in := strings.NewReader("links\nquit\n")
	var out bytes.Buffer
	err = run([]string{
		"-node", "0", "-topology", topoPath, "-peers", peers,
	}, in, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "drtpnode: node 0 listening") {
		t.Fatalf("output: %s", out.String())
	}
}

func TestRunValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, strings.NewReader(""), &out); err == nil {
		t.Fatal("missing topology accepted")
	}
	g, _ := topology.Ring(3)
	topoPath := filepath.Join(t.TempDir(), "topo.json")
	if err := topology.SaveJSON(topoPath, g); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-topology", topoPath, "-peers", "0=:1"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("incomplete peers accepted")
	}
	for _, node := range []string{"3", "-1", "4294967297"} { // the last is node 1 cut to 32 bits
		if err := run([]string{"-topology", topoPath, "-node", node, "-peers", "0=127.0.0.1:0,1=127.0.0.1:0,2=127.0.0.1:0"}, strings.NewReader(""), &out); err == nil || !strings.Contains(err.Error(), "outside the topology") {
			t.Fatalf("-node %s: got %v, want an outside-the-topology error", node, err)
		}
	}
	if err := run([]string{"-topology", topoPath, "-peers", "0=127.0.0.1:0,1=127.0.0.1:0,2=127.0.0.1:0", "-scheme", "zz"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("bad scheme accepted")
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing run output
// while the node is still serving.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRunMetricsEndpoint(t *testing.T) {
	g, err := topology.Ring(3)
	if err != nil {
		t.Fatal(err)
	}
	topoPath := filepath.Join(t.TempDir(), "topo.json")
	if err := topology.SaveJSON(topoPath, g); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(t.TempDir(), "events.jsonl")

	before := nodeGoroutines()
	inR, inW := io.Pipe()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-node", "0", "-topology", topoPath,
			"-peers", "0=127.0.0.1:0,1=127.0.0.1:0,2=127.0.0.1:0",
			"-metrics", "127.0.0.1:0", "-trace", tracePath, "-runtime-metrics",
		}, inR, &out)
	}()

	// Wait for the metrics server line, then scrape it.
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("metrics line never appeared; output:\n%s", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "drtpnode: metrics on http://"); ok {
				addr = strings.TrimSuffix(strings.TrimSpace(rest), "/metrics")
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	res, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != 200 || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("/healthz: %d %q", res.StatusCode, body)
	}

	res, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("/metrics status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	if !strings.Contains(string(body), "drtp_router_active_connections") {
		t.Fatalf("/metrics body missing router families:\n%s", body)
	}

	if _, err := inW.Write([]byte("quit\n")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tracePath); err != nil {
		t.Fatalf("trace file missing: %v", err)
	}
	// run leaves none of its goroutines behind: the console reader ends at
	// quit, the metrics server at Shutdown, and the runtime sampler, the
	// trace stream, the TCP mesh and the router at their stop or Close.
	for deadline := time.Now().Add(5 * time.Second); nodeGoroutines() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines of the node still run after quit, %d before", nodeGoroutines(), before)
		}
	}
}

// nodeGoroutines counts the goroutines that run, or were started by, code
// of this module; the calling test's own goroutine is one of them.
func nodeGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("github.com/rtcl/drtp/")) {
			n++
		}
	}
	return n
}
