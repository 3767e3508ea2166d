package metrics

import (
	"fmt"
	"net"
	"net/http"
)

// Handler returns the telemetry endpoint multiplexer:
//
//	/metrics  Prometheus text exposition format
//	/         a one-line index
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprintln(w, "simulator telemetry: /metrics (Prometheus text)")
	})
	return mux
}

// Server is a running telemetry HTTP server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an HTTP server for the registry on addr (e.g.
// "127.0.0.1:9090"; ":0" picks a free port — read it back via Addr).
// The server runs until Close.
func Serve(addr string, r *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: r.Handler()}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down immediately.
func (s *Server) Close() error { return s.srv.Close() }
