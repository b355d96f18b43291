// Command drtpnode runs one process of a live DRTP deployment over TCP,
// driven by a line-oriented console on stdin. The -role flag selects
// what the process is:
//
//   - "all" (default): a standalone router, exactly the historical
//     behavior; when -services is given it additionally runs the node
//     agent so the process participates in the control plane.
//   - "node": a router plus its control-plane agent (requires -services).
//     The router selects the routes of the connections it originates.
//   - "setup": the setup coordinator driving tenant admission quotas,
//     establishment and release at each connection's source, heartbeat
//     liveness and node drains.
//
// Start one router process per node of a shared topology file plus the
// coordinator and they form a live DRTP network with central setup
// coordination:
//
//	topogen -kind ring -nodes 3 -json > topo.json
//	drtpnode -role setup -topology topo.json -peers ... -services coord=:7201 &
//	drtpnode -role node -node 0 -topology topo.json -peers 0=:7100,1=:7101,2=:7102 -services coord=:7201 &
//	...
//
// Console commands (availability depends on role):
//
//	establish <conn-id> <dst-node>   set up a DR-connection from this router
//	release <conn-id>                terminate a locally-established connection
//	request <conn-id> <dst-node>     establish via the setup coordinator
//	crelease <conn-id>               release via the setup coordinator
//	drain <node>                     gracefully drain a node via the coordinator
//	ready                            print this process's readiness
//	info <conn-id>                   show a connection's channels
//	links                            show local link reservations
//	fail <neighbor-node>             declare the adjacency failed
//	quit                             exit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/rtcl/drtp/internal/controlplane"
	"github.com/rtcl/drtp/internal/faultinject"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/router"
	"github.com/rtcl/drtp/internal/telemetry"
	"github.com/rtcl/drtp/internal/topology"
	"github.com/rtcl/drtp/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "drtpnode:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("drtpnode", flag.ContinueOnError)
	var (
		role      = fs.String("role", "all", "process role: setup|node|all")
		node      = fs.Int("node", 0, "this router's node ID in the topology (node roles)")
		topoPath  = fs.String("topology", "", "topology JSON file (see topogen -json)")
		peers     = fs.String("peers", "", "comma-separated node=host:port directory for every node")
		services  = fs.String("services", "", "control-plane directory coord=host:port")
		capacity  = fs.Int("capacity", 40, "per-direction link bandwidth units")
		unitBW    = fs.Int("unitbw", 1, "bandwidth units per DR-connection")
		scheme    = fs.String("scheme", "dlsr", "backup routing scheme: dlsr|plsr")
		tenant    = fs.String("tenant", "default", "tenant for requests issued from this node's console")
		quotas    = fs.String("quotas", "", `per-tenant admission quotas "tenant=conns:bw,..." (0 = unlimited; setup role)`)
		heartbeat = fs.Duration("heartbeat", 500*time.Millisecond, "control-plane heartbeat interval (setup and node roles)")
		metrics   = fs.String("metrics", "", "serve /metrics, /healthz and /readyz on this address (e.g. :9090)")
		runtimeM  = fs.Bool("runtime-metrics", false, "sample Go runtime health (heap, GC pauses, scheduler latency) into the metrics registry")
		trace     = fs.String("trace", "", "append protocol events as JSONL to this file")
		chaos     = fs.String("chaos", "", "chaos schedule JSON applied to this node's outbound signalling (times are seconds since start)")
		retries   = fs.Int("retries", 3, "signalling attempt budget per round trip (1 disables retransmission)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *topoPath == "" {
		return fmt.Errorf("missing -topology")
	}
	g, err := topology.LoadJSON(*topoPath)
	if err != nil {
		return err
	}
	if *node < 0 || *node >= g.NumNodes() {
		return fmt.Errorf("-node %d outside the topology's %d nodes", *node, g.NumNodes())
	}
	addrs, err := parsePeers(*peers, g.NumNodes())
	if err != nil {
		return err
	}
	svc, err := parseServices(*services, g)
	if err != nil {
		return err
	}
	for n, a := range svc {
		addrs[n] = a
	}
	tenantQuotas, err := parseQuotas(*quotas)
	if err != nil {
		return err
	}
	backup := router.DLSR
	if *scheme == "plsr" {
		backup = router.PLSR
	} else if *scheme != "dlsr" {
		return fmt.Errorf("unknown scheme %q", *scheme)
	}
	switch *role {
	case "all", "node", "setup":
	default:
		return fmt.Errorf("unknown role %q (want setup|node|all)", *role)
	}
	if *role != "all" && len(svc) == 0 {
		return fmt.Errorf("role %q requires -services coord=host:port", *role)
	}

	reg := telemetry.NewRegistry()
	var sinks []telemetry.Sink
	sinks = append(sinks, telemetry.NewMetricsSink(reg))
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			return err
		}
		// Stream events through a bounded queue so a slow disk never
		// stalls signalling; overflow is counted in the registry.
		sinks = append(sinks, telemetry.NewStreamSink(f, reg))
	}
	tracer := telemetry.NewTracer(sinks...)
	tracer.SetNode(*node)
	defer func() { _ = tracer.Close() }()

	if *runtimeM {
		stop := telemetry.StartRuntimeSampler(reg, 0)
		defer stop()
	}

	// SIGINT/SIGTERM shut the process down gracefully: the HTTP server
	// drains in-flight scrapes, the runtime closes, and the trace flushes.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	mesh := transport.NewTCPMesh(addrs)
	var attacher transport.Attacher = mesh
	if *chaos != "" {
		sched, err := faultinject.Load(*chaos)
		if err != nil {
			return err
		}
		// Schedule windows and delays are read in seconds since the
		// injector was built.
		attacher = faultinject.New(sched, mesh,
			faultinject.WithClock(transport.Wall),
			faultinject.WithDelayUnit(time.Second),
			faultinject.WithTracer(tracer))
		fmt.Fprintf(out, "drtpnode: chaos schedule %s armed (seed %d)\n", *chaos, sched.Seed)
	}

	cfg := controlplane.DeployConfig{
		Graph:             g,
		Capacity:          *capacity,
		UnitBW:            *unitBW,
		Scheme:            backup,
		HeartbeatInterval: *heartbeat,
		HeartbeatMiss:     defaultHeartbeatMiss,
		RetryLimit:        *retries,
		Quotas:            tenantQuotas,
		Tenants:           map[graph.NodeID]string{graph.NodeID(*node): *tenant},
		Router:            router.Config{RetryLimit: *retries, NbrRecovery: *chaos != ""},
		Telemetry:         tracer,
		Metrics:           reg,
	}
	startRole := *role
	if startRole == "all" && len(svc) > 0 {
		// A bare "all" is the historical standalone router; with
		// -services it joins the control plane as a node.
		startRole = "node"
	}
	env, err := start(startRole, cfg, graph.NodeID(*node), mesh, attacher)
	if err != nil {
		return err
	}
	defer env.close()

	if *metrics != "" {
		shutdown, addr, err := serveMetrics(*metrics, reg, env.ready)
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(out, "drtpnode: metrics on http://%s/metrics\n", addr)
	}
	fmt.Fprint(out, env.banner)

	consoleDone := make(chan error, 1)
	go func() { consoleDone <- console(env, in, out) }()
	select {
	case err := <-consoleDone:
		return err
	case <-ctx.Done():
		fmt.Fprintln(out, "drtpnode: signal received, shutting down")
		return nil
	}
}

// serveMetrics starts the observability endpoint and returns its
// shutdown func and bound address.
func serveMetrics(addr string, reg *telemetry.Registry, ready func() (bool, string)) (func(), string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("metrics listener: %w", err)
	}
	srv := &http.Server{Handler: telemetry.Handler(reg, ready)}
	go func() { _ = srv.Serve(ln) }()
	shutdown := func() {
		sctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}
	return shutdown, ln.Addr().String(), nil
}

// parsePeers parses "0=host:port,1=host:port,..." into the directory.
func parsePeers(spec string, nodes int) (map[graph.NodeID]string, error) {
	addrs := make(map[graph.NodeID]string, nodes)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || addr == "" {
			return nil, fmt.Errorf("bad peer entry %q (want node=host:port)", part)
		}
		n, err := strconv.Atoi(id)
		if err != nil || n < 0 || n >= nodes {
			return nil, fmt.Errorf("bad peer node %q", id)
		}
		if _, dup := addrs[graph.NodeID(n)]; dup {
			return nil, fmt.Errorf("peer node %d listed twice", n)
		}
		addrs[graph.NodeID(n)] = addr
	}
	if len(addrs) != nodes {
		return nil, fmt.Errorf("peer directory has %d of %d nodes", len(addrs), nodes)
	}
	return addrs, nil
}

// parseServices parses "coord=host:port" into the transport directory
// entry at the coordinator's ID. An empty spec yields an empty map (no
// control plane).
func parseServices(spec string, g *graph.Graph) (map[graph.NodeID]string, error) {
	svc := make(map[graph.NodeID]string)
	if strings.TrimSpace(spec) == "" {
		return svc, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr, ok := strings.Cut(part, "=")
		if !ok || addr == "" {
			return nil, fmt.Errorf("bad service entry %q (want coord=host:port)", part)
		}
		// A space-separated second entry would otherwise be read as part
		// of the address and fail only when a node dials it.
		if _, _, err := net.SplitHostPort(addr); err != nil || strings.ContainsAny(addr, " \t") {
			return nil, fmt.Errorf("bad service address %q (want host:port)", addr)
		}
		switch name {
		case "coord", "setup":
			svc[controlplane.CoordinatorID(g)] = addr
		default:
			return nil, fmt.Errorf("unknown service %q (want coord)", name)
		}
	}
	if _, ok := svc[controlplane.CoordinatorID(g)]; !ok {
		return nil, fmt.Errorf("service directory %q missing coord", spec)
	}
	return svc, nil
}

// parseQuotas parses `tenant=conns:bw,...` into admission quotas; 0
// means unlimited on that axis.
func parseQuotas(spec string) (map[string]controlplane.Quota, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	quotas := make(map[string]controlplane.Quota)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		tenant, limits, ok := strings.Cut(part, "=")
		if !ok || tenant == "" {
			return nil, fmt.Errorf("bad quota entry %q (want tenant=conns:bw)", part)
		}
		connsStr, bwStr, ok := strings.Cut(limits, ":")
		if !ok {
			return nil, fmt.Errorf("bad quota limits %q (want conns:bw)", limits)
		}
		conns, err1 := strconv.Atoi(connsStr)
		bw, err2 := strconv.Atoi(bwStr)
		if err1 != nil || err2 != nil || conns < 0 || bw < 0 {
			return nil, fmt.Errorf("bad quota limits %q (want non-negative conns:bw)", limits)
		}
		quotas[tenant] = controlplane.Quota{MaxConns: conns, MaxBandwidth: bw}
	}
	return quotas, nil
}

// console reads commands for any role until EOF or quit.
func console(env *consoleEnv, in io.Reader, out io.Writer) error {
	scanner := bufio.NewScanner(in)
	fmt.Fprint(out, "> ")
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "quit" || line == "exit" {
			return nil
		}
		if line != "" {
			execute(env, line, out)
		}
		fmt.Fprint(out, "> ")
	}
	return scanner.Err()
}

// execute runs one console command against whatever the process
// hosts: router commands need a router, coordinator-backed commands an
// agent, and ready works everywhere.
func execute(env *consoleEnv, line string, out io.Writer) {
	fields := strings.Fields(line)
	cmd := fields[0]
	switch cmd {
	case "establish", "release", "info", "links", "fail":
		if env.r == nil {
			fmt.Fprintf(out, "error: %q needs a router role\n", cmd)
			return
		}
	case "request", "crelease", "drain":
		if env.a == nil {
			fmt.Fprintf(out, "error: %q needs a node role with -services\n", cmd)
			return
		}
	}
	switch cmd {
	case "establish":
		if len(fields) != 3 {
			fmt.Fprintln(out, "usage: establish <conn-id> <dst-node>")
			return
		}
		id, err1 := strconv.ParseInt(fields[1], 10, 64)
		dst, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil || dst < 0 || dst >= env.g.NumNodes() {
			fmt.Fprintln(out, "error: bad arguments")
			return
		}
		info, err := env.r.Establish(lsdb.ConnID(id), graph.NodeID(dst))
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			return
		}
		fmt.Fprintf(out, "established %d: primary %v backup %v\n", id, info.Primary, info.Backup)
	case "release":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: release <conn-id>")
			return
		}
		id, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			fmt.Fprintln(out, "error: bad connection id")
			return
		}
		if err := env.r.Release(lsdb.ConnID(id)); err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			return
		}
		fmt.Fprintf(out, "released %d\n", id)
	case "request":
		if len(fields) != 3 {
			fmt.Fprintln(out, "usage: request <conn-id> <dst-node>")
			return
		}
		id, err1 := strconv.ParseInt(fields[1], 10, 64)
		dst, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil || dst < 0 || dst >= env.g.NumNodes() {
			fmt.Fprintln(out, "error: bad arguments")
			return
		}
		reply, err := env.a.Request(lsdb.ConnID(id), graph.NodeID(dst))
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			return
		}
		if !reply.OK {
			fmt.Fprintf(out, "rejected %d: %s\n", id, reply.Reason)
			return
		}
		fmt.Fprintf(out, "requested %d: primary %v backups %v\n", id, reply.Primary, reply.Backups)
	case "crelease":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: crelease <conn-id>")
			return
		}
		id, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			fmt.Fprintln(out, "error: bad connection id")
			return
		}
		reply, err := env.a.ReleaseConn(lsdb.ConnID(id))
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			return
		}
		if !reply.OK {
			fmt.Fprintf(out, "release rejected %d: %s\n", id, reply.Reason)
			return
		}
		fmt.Fprintf(out, "released %d via coordinator\n", id)
	case "drain":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: drain <node>")
			return
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 || n >= env.g.NumNodes() {
			fmt.Fprintln(out, "error: bad node")
			return
		}
		reply, err := env.a.DrainNode(graph.NodeID(n))
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			return
		}
		if !reply.OK {
			fmt.Fprintf(out, "drain rejected: %s\n", reply.Reason)
			return
		}
		fmt.Fprintf(out, "drained node %d: dropped %d\n", n, reply.Dropped)
	case "ready":
		ok, reason := true, ""
		if env.ready != nil {
			ok, reason = env.ready()
		}
		if ok {
			fmt.Fprintln(out, "ready")
		} else {
			fmt.Fprintf(out, "not ready: %s\n", reason)
		}
	case "info":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: info <conn-id>")
			return
		}
		id, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			fmt.Fprintln(out, "error: bad connection id")
			return
		}
		info, ok := env.r.Conn(lsdb.ConnID(id))
		if !ok {
			fmt.Fprintf(out, "connection %d not found\n", id)
			return
		}
		fmt.Fprintf(out, "conn %d: %d -> %d primary %v backup %v switched=%v dead=%v\n",
			info.ID, info.Src, info.Dst, info.Primary, info.Backup, info.Switched, info.Dead)
	case "links":
		db := env.r.DB()
		for _, l := range env.g.Out(env.r.Node()) {
			link := env.g.Link(l)
			fmt.Fprintf(out, "L%d %d->%d: prime=%d spare=%d backups=%d norm=%d\n",
				l, link.From, link.To, db.PrimeBW(l), db.SpareBW(l),
				db.NumBackupsOn(l), db.APLVNorm(l))
		}
	case "fail":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: fail <neighbor-node>")
			return
		}
		nbr, err := strconv.Atoi(fields[1])
		if err != nil || nbr < 0 || nbr >= env.g.NumNodes() {
			fmt.Fprintln(out, "error: bad neighbor")
			return
		}
		env.r.FailLink(graph.NodeID(nbr))
		fmt.Fprintf(out, "declared link to %d failed\n", nbr)
	default:
		fmt.Fprintf(out, "unknown command %q (establish|release|request|crelease|drain|ready|info|links|fail|quit)\n", cmd)
	}
}
