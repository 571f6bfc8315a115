package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// AdminConfig wires one process's observability sources into an AdminServer.
// Every hook is optional; a missing one degrades its endpoint gracefully
// (empty exposition, always-healthy, no events).
type AdminConfig struct {
	// Collect writes the process's Prometheus exposition. Called once per
	// /metrics scrape.
	Collect func(w *PromWriter)
	// MetricsJSON returns the /metrics.json payload: the process's wire
	// metrics frame snapshot (a serve.Metrics), served as JSON as it is.
	// Counters and histograms beyond the frame live only on /metrics.
	MetricsJSON func() any
	// Healthy reports liveness: nil → 200, error → 503 with the error text.
	// Liveness is "the process is up and its core loop exists" — a gestured
	// daemon is unhealthy only once its manager closed.
	Healthy func() error
	// Ready reports readiness to take traffic: nil → 200, error → 503. A
	// gateway is unready while no backend is live; a single node mirrors
	// Healthy. Distinct from liveness so an orchestrator drains traffic
	// without killing the process.
	Ready func() error
	// Events returns the most recent structured log events, oldest first
	// (the Logger.Recent contract); served as JSON at /events?n=.
	Events func(n int) []Event
	// Routes adds process-specific endpoints to the admin mux (path →
	// handler) — e.g. cluster.Gateway.AdminRoutes (/backends,
	// /backends/{add,drain,remove}, /backfill). Registered alongside the
	// fixed endpoints; a route must not reuse one of their paths (the mux
	// panics on a duplicate pattern).
	Routes map[string]http.HandlerFunc
}

// AdminServer is the HTTP observability plane of one process: /metrics
// (Prometheus text), /metrics.json, /healthz, /readyz, /events and
// /debug/pprof/*. It binds its own listener so the data-plane TCP port and
// the admin port stay independent — a wedged frame loop never blocks a
// scrape, and the admin port can stay firewalled-in while the data port is
// open.
type AdminServer struct {
	cfg AdminConfig
	ln  net.Listener
	srv *http.Server
}

// StartAdmin listens on addr (e.g. ":9090" or "127.0.0.1:0") and serves the
// admin plane until Close.
func StartAdmin(addr string, cfg AdminConfig) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen %s: %w", addr, err)
	}
	a := &AdminServer{cfg: cfg, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.HandleFunc("/metrics.json", a.handleMetricsJSON)
	mux.HandleFunc("/healthz", probeHandler(cfg.Healthy))
	mux.HandleFunc("/readyz", probeHandler(cfg.Ready))
	mux.HandleFunc("/events", a.handleEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for path, h := range cfg.Routes {
		mux.HandleFunc(path, h)
	}
	a.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go a.srv.Serve(ln)
	return a, nil
}

// Addr returns the bound listener address.
func (a *AdminServer) Addr() net.Addr { return a.ln.Addr() }

// Close stops the admin listener. Nil-safe, so cmds can defer it
// unconditionally whether or not -admin-addr was given.
func (a *AdminServer) Close() error {
	if a == nil {
		return nil
	}
	return a.srv.Close()
}

func (a *AdminServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	pw := NewPromWriter()
	if a.cfg.Collect != nil {
		a.cfg.Collect(pw)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(pw.Bytes())
}

func (a *AdminServer) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	var v any
	if a.cfg.MetricsJSON != nil {
		v = a.cfg.MetricsJSON()
	}
	WriteJSON(w, http.StatusOK, v)
}

func (a *AdminServer) handleEvents(w http.ResponseWriter, r *http.Request) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		if v, err := strconv.Atoi(q); err == nil {
			n = v
		}
	}
	events := []Event{}
	if a.cfg.Events != nil {
		if e := a.cfg.Events(n); e != nil {
			events = e
		}
	}
	WriteJSON(w, http.StatusOK, events)
}

// probeHandler adapts a health hook into a 200/503 endpoint.
func probeHandler(probe func() error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if probe != nil {
			if err := probe(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	}
}

// WriteJSON replies with v as indented JSON under status — the one JSON
// writer of the admin plane and of the routes processes add to it. A value
// that does not marshal replies 500 instead.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}
