package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
)

// Handler serves a registry over HTTP:
//
//	GET /metrics              sorted "name value" text (Snapshot.Text)
//	GET /metrics?format=json  the full Snapshot as JSON
//	GET /debug/events         the retained event ring as JSON, oldest first
//	GET /debug/pprof/...      the Go runtime's profiles (net/http/pprof)
//
// A nil registry serves empty snapshots, so a daemon can wire the
// endpoint unconditionally and gate only the registry itself. The pprof
// handlers are registered on this mux, not on http.DefaultServeMux, so
// they are served exactly where the metrics are and nowhere else.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s := reg.Snapshot()
		wantJSON := r.URL.Query().Get("format") == "json" ||
			strings.Contains(r.Header.Get("Accept"), "application/json")
		if wantJSON {
			b, err := s.JSON()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(b)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, s.Text())
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		b, err := json.MarshalIndent(reg.Trace().Events(), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running metrics endpoint.
type Server struct {
	l   net.Listener
	srv *http.Server
}

// Serve exposes reg on addr (":0" for ephemeral) and returns the running
// server. Close stops it.
func Serve(addr string, reg *Registry) (*Server, error) { return ServeHandler(addr, Handler(reg)) }

// ServeHandler is Serve for a handler that wraps Handler, e.g. one that
// publishes a component's private counters before a scrape.
func ServeHandler(addr string, h http.Handler) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{l: l, srv: &http.Server{Handler: h}}
	go s.srv.Serve(l)
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.l.Addr().String() }

// Close stops the endpoint.
func (s *Server) Close() error { return s.srv.Close() }
