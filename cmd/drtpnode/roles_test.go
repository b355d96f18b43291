package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/controlplane"
	"github.com/rtcl/drtp/internal/topology"
)

func TestParseServices(t *testing.T) {
	g, err := topology.Ring(3)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := parseServices(" coord=127.0.0.1:7201", g)
	if err != nil {
		t.Fatal(err)
	}
	if len(svc) != 1 || svc[controlplane.CoordinatorID(g)] != "127.0.0.1:7201" {
		t.Fatalf("coord addr: %v", svc)
	}
	// The long-form name is accepted too.
	svc, err = parseServices("setup=b:2", g)
	if err != nil || svc[controlplane.CoordinatorID(g)] != "b:2" {
		t.Fatalf("long name: svc=%v err=%v", svc, err)
	}
	// Empty spec means no control plane.
	if svc, err := parseServices("  ", g); err != nil || len(svc) != 0 {
		t.Fatalf("empty spec: svc=%v err=%v", svc, err)
	}
}

func TestParseServicesErrors(t *testing.T) {
	g, err := topology.Ring(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{
		"rf=a:1,coord=b:2",    // the retired route finder
		"lb=a:1",              // missing coord
		"coord=a:1,lb=b:2",    // unknown service
		"coord",               // bad entry
		"coord=",              // empty address
		"coord=a:1 setup=b:2", // not comma separated
		"coord=a:1 setup=b",   // not comma separated, one colon
		"coord=a",             // no port
		"=a:1,coord=b:2",      // empty name
	} {
		if _, err := parseServices(spec, g); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestParseQuotas(t *testing.T) {
	quotas, err := parseQuotas("acme=10:100, free=2:0")
	if err != nil {
		t.Fatal(err)
	}
	if q := quotas["acme"]; q.MaxConns != 10 || q.MaxBandwidth != 100 {
		t.Fatalf("acme quota: %+v", q)
	}
	if q := quotas["free"]; q.MaxConns != 2 || q.MaxBandwidth != 0 {
		t.Fatalf("free quota: %+v", q)
	}
	if quotas, err := parseQuotas(""); err != nil || quotas != nil {
		t.Fatalf("empty spec: %v %v", quotas, err)
	}
}

func TestParseQuotasErrors(t *testing.T) {
	for _, spec := range []string{
		"acme",      // no limits
		"acme=10",   // no bandwidth
		"acme=x:1",  // bad conns
		"acme=1:y",  // bad bandwidth
		"acme=-1:5", // negative
		"=1:2",      // empty tenant
	} {
		if _, err := parseQuotas(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestRunRoleValidation(t *testing.T) {
	g, _ := topology.Ring(3)
	topoPath := filepath.Join(t.TempDir(), "topo.json")
	if err := topology.SaveJSON(topoPath, g); err != nil {
		t.Fatal(err)
	}
	peers := "0=127.0.0.1:0,1=127.0.0.1:0,2=127.0.0.1:0"
	var out bytes.Buffer
	if err := run([]string{"-topology", topoPath, "-peers", peers, "-role", "manager"},
		strings.NewReader(""), &out); err == nil {
		t.Fatal("unknown role accepted")
	}
	if err := run([]string{"-topology", topoPath, "-peers", peers, "-role", "routefinder", "-services", "coord=127.0.0.1:0"},
		strings.NewReader(""), &out); err == nil {
		t.Fatal("the retired routefinder role accepted")
	}
	for _, role := range []string{"setup", "node"} {
		if err := run([]string{"-topology", topoPath, "-peers", peers, "-role", role},
			strings.NewReader(""), &out); err == nil {
			t.Fatalf("role %q without -services accepted", role)
		}
	}
	if err := run([]string{"-topology", topoPath, "-peers", peers, "-quotas", "acme=x:y"},
		strings.NewReader(""), &out); err == nil {
		t.Fatal("bad quotas accepted")
	}
}

// reserveAddrs grabs n distinct loopback ports by holding listeners
// open simultaneously, then frees them for the processes under test.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		_ = ln.Close()
	}
	return addrs
}

// proc is one in-test drtpnode process: its console pipe and output.
type proc struct {
	in   *io.PipeWriter
	out  *syncBuffer
	done chan error
}

func startProc(args []string) *proc {
	inR, inW := io.Pipe()
	p := &proc{in: inW, out: &syncBuffer{}, done: make(chan error, 1)}
	go func() { p.done <- run(args, inR, p.out) }()
	return p
}

func (p *proc) quit(t *testing.T) {
	t.Helper()
	_, _ = p.in.Write([]byte("quit\n"))
	select {
	case err := <-p.done:
		if err != nil {
			t.Errorf("process exited with error: %v\noutput:\n%s", err, p.out.String())
		}
	case <-time.After(10 * time.Second):
		t.Errorf("process did not exit; output:\n%s", p.out.String())
	}
}

// TestRunTwoRoleDeployment boots a setup coordinator and four node
// runtimes as separate run() instances over real TCP, waits for the
// client node's /readyz to flip, and establishes and releases a
// DR-connection through the coordinator from the console.
func TestRunTwoRoleDeployment(t *testing.T) {
	g, err := topology.FromEdgeList(4, [][2]int{{0, 2}, {2, 1}, {0, 3}, {3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	topoPath := filepath.Join(t.TempDir(), "topo.json")
	if err := topology.SaveJSON(topoPath, g); err != nil {
		t.Fatal(err)
	}
	addrs := reserveAddrs(t, 5)
	peers := fmt.Sprintf("0=%s,1=%s,2=%s,3=%s", addrs[0], addrs[1], addrs[2], addrs[3])
	services := "coord=" + addrs[4]
	common := []string{"-topology", topoPath, "-peers", peers, "-services", services,
		"-heartbeat", "50ms"}

	procs := []*proc{
		startProc(append([]string{"-role", "setup", "-quotas", "default=100:1000"}, common...)),
	}
	client := startProc(append([]string{"-role", "node", "-node", "0", "-metrics", "127.0.0.1:0"}, common...))
	procs = append(procs, client)
	for n := 1; n < 4; n++ {
		procs = append(procs, startProc(append([]string{"-role", "node", "-node", fmt.Sprint(n)}, common...)))
	}
	defer func() {
		for i := len(procs) - 1; i >= 0; i-- {
			procs[i].quit(t)
		}
	}()

	// Find the client's observability address, then gate on /readyz:
	// it must stay 503 until the node is registered and link-state
	// synced, and flip to 200 once the control plane converges.
	var metricsAddr string
	deadline := time.Now().Add(10 * time.Second)
	for metricsAddr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("metrics line never appeared; output:\n%s", client.out.String())
		}
		for _, line := range strings.Split(client.out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "drtpnode: metrics on http://"); ok {
				metricsAddr = strings.TrimSuffix(strings.TrimSpace(rest), "/metrics")
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	ready := false
	for !ready && time.Now().Before(deadline) {
		res, err := http.Get("http://" + metricsAddr + "/readyz")
		if err == nil {
			body, _ := io.ReadAll(res.Body)
			res.Body.Close()
			switch res.StatusCode {
			case http.StatusOK:
				ready = true
			case http.StatusServiceUnavailable:
				// expected while converging
			default:
				t.Fatalf("/readyz: %d %q", res.StatusCode, body)
			}
		}
		if !ready {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if !ready {
		t.Fatalf("/readyz never turned 200; output:\n%s", client.out.String())
	}

	// Establish and release a DR-connection via the coordinator.
	if _, err := client.in.Write([]byte("request 1 1\n")); err != nil {
		t.Fatal(err)
	}
	waitOutput(t, client.out, "requested 1: primary")
	if _, err := client.in.Write([]byte("crelease 1\n")); err != nil {
		t.Fatal(err)
	}
	waitOutput(t, client.out, "released 1 via coordinator")
}

// waitOutput polls a process's console output for a substring.
func waitOutput(t *testing.T, out *syncBuffer, want string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !strings.Contains(out.String(), want) {
		if time.Now().After(deadline) {
			t.Fatalf("output never contained %q:\n%s", want, out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
