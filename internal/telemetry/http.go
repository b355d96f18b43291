package telemetry

import (
	"fmt"
	"net/http"
	"net/http/pprof"
)

// Handler serves the registry over HTTP:
//
//	GET /metrics       — Prometheus text exposition format
//	GET /healthz       — 200 "ok" liveness probe
//	GET /readyz        — readiness probe: 200 "ok" when ready() says so,
//	                     503 with its reason when not
//	GET /debug/pprof/  — stdlib profiling endpoints (CPU, heap, goroutine,
//	                     block, mutex, execution trace)
//
// Mount it on a plain http.Server; cmd/drtpnode does so behind its
// -metrics flag. The node runtime reports unready before its first
// link-state sync and again while draining, so load balancers stop
// steering setup requests at a node that cannot (or should no longer)
// take them. A nil ready means always ready.
func Handler(reg *Registry, ready func() (ok bool, reason string)) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if ready != nil {
			if ok, reason := ready(); !ok {
				w.WriteHeader(http.StatusServiceUnavailable)
				if reason == "" {
					reason = "not ready"
				}
				fmt.Fprintln(w, reason)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
