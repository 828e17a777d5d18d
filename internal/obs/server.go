package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns an http.Handler exposing the observer's state:
//
//	/metrics         Prometheus text exposition
//	/metrics.json    registry snapshot as JSON
//	/progress.json   live ProgressSnapshot
//	/trace.json      Chrome trace_event JSON of the spans so far
//	/forensics.json  masking-source breakdown (when Forensics is set)
//	/debug/pprof/    live Go profiling (heap, goroutine, CPU, ...)
func (o *Observer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, `<html><body><h1>avgi telemetry</h1><ul>
<li><a href="/metrics">/metrics</a> (Prometheus text)</li>
<li><a href="/metrics.json">/metrics.json</a></li>
<li><a href="/progress.json">/progress.json</a></li>
<li><a href="/trace.json">/trace.json</a> (chrome://tracing)</li>
<li><a href="/forensics.json">/forensics.json</a> (masking-source breakdown)</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> (live profiling)</li>
</ul></body></html>`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if o == nil || o.Metrics == nil {
			http.Error(w, "metrics disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		o.Metrics.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		if o == nil || o.Metrics == nil {
			http.Error(w, "metrics disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		o.Metrics.WriteJSON(w)
	})
	mux.HandleFunc("/progress.json", func(w http.ResponseWriter, r *http.Request) {
		if o == nil || o.Progress == nil {
			http.Error(w, "progress disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		o.Progress.WriteJSON(w)
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, r *http.Request) {
		if o == nil || o.Trace == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		o.Trace.WriteChromeTrace(w)
	})
	mux.HandleFunc("/forensics.json", func(w http.ResponseWriter, r *http.Request) {
		if o == nil || o.Forensics == nil {
			http.Error(w, "forensics disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		o.Forensics.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DefaultDrainTimeout is how long Close waits for in-flight requests to
// finish before dropping the connections hard.
const DefaultDrainTimeout = 5 * time.Second

// Server is a running telemetry (or service) endpoint.
type Server struct {
	ln    net.Listener
	srv   *http.Server
	drain time.Duration
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetDrainTimeout overrides DefaultDrainTimeout for Close. Call before
// sharing the server between goroutines.
func (s *Server) SetDrainTimeout(d time.Duration) {
	if d > 0 {
		s.drain = d
	}
}

// Close shuts the server down gracefully: the listener stops accepting
// immediately, in-flight requests (a Prometheus scrape mid-render, a
// progress stream mid-line) get up to the drain timeout to complete, and
// only then are surviving connections dropped hard. http.Server.Close was
// the old behaviour and it severed live scrapes mid-body; the avgid
// service reuses this path as its drain-on-SIGTERM.
func (s *Server) Close() error {
	d := s.drain
	if d <= 0 {
		d = DefaultDrainTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		// Deadline expired with requests still running: drop them.
		return s.srv.Close()
	}
	return nil
}

// NewServer binds addr (e.g. "localhost:9090" or ":0" for an ephemeral
// port) and serves h in a background goroutine — the plumbing under
// Observer.Serve, exported so servers with their own mux (cmd/avgid) share
// the bind/drain lifecycle.
func NewServer(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}

// Serve starts an HTTP server for the observer on addr and returns once
// the listener is bound; requests are served in a background goroutine.
func (o *Observer) Serve(addr string) (*Server, error) {
	return NewServer(addr, o.Handler())
}
