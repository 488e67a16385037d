package obs

import (
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is the observability HTTP endpoint: the JSON snapshot at
// /metrics, expvar at /debug/vars and net/http/pprof under /debug/pprof/.
type Server struct {
	// Addr is the bound listen address (useful with ":0").
	Addr string

	ln  net.Listener
	srv *http.Server
}

// MetricsHandler returns the /metrics endpoint for r: a JSON snapshot by
// default, switched to the OpenMetrics text exposition when the Accept
// header asks for it. It is the handler obs.Serve mounts, exported so a
// host process with its own router (cmd/orserved) can mount the identical
// endpoint without binding a second listener.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		// Content negotiation: Prometheus (Accept: openmetrics-text or
		// text/plain) gets the text exposition; everything else keeps the
		// JSON snapshot, which was the endpoint's original contract.
		if wantsOpenMetrics(req.Header.Get("Accept")) {
			w.Header().Set("Content-Type", OpenMetricsContentType)
			if err := r.Snapshot().WriteOpenMetrics(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		data, err := r.Snapshot().JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
}

// DebugHandler returns the debug surface obs.Serve mounts under /debug/:
// expvar at /debug/vars and net/http/pprof under /debug/pprof/. Like
// MetricsHandler it exists so a host router can mount the surface without
// a second listener; the handler routes by full request path, so mount it
// at /debug/.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve binds addr and serves r's observability surface until Close. The
// registry snapshot is also published to expvar as "openresolver" so it
// shows up in /debug/vars next to the runtime's memstats.
func Serve(addr string, r *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	r.Publish("openresolver")
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(r))
	mux.Handle("/debug/", DebugHandler())
	s := &Server{Addr: ln.Addr().String(), ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)
	return s, nil
}

// Close stops the server and releases the listener.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// Flags holds the observability flags the campaign CLIs share:
// -metrics-addr and -progress.
type Flags struct {
	addr     string
	progress time.Duration
}

// RegisterFlags registers -metrics-addr and -progress on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.addr, "metrics-addr", "", "serve /metrics (JSON snapshot, or OpenMetrics via Accept), /debug/vars (expvar) and /debug/pprof on this address")
	fs.DurationVar(&f.progress, "progress", 0, "print a live progress line to stderr at this interval (e.g. 2s; 0 = off)")
	return f
}

// Start sets up what the flags ask for. The registry exists only when a
// flag is set: a nil registry turns every instrumentation call in the
// pipeline into a no-op. addr is the metrics server's bound address, ""
// without -metrics-addr; the server is announced on log under the
// command's name. stop halts the progress ticker, which prints its final
// line, and then closes the server.
func (f *Flags) Start(name string, log io.Writer) (reg *Registry, addr string, stop func(), err error) {
	if f.addr == "" && f.progress <= 0 {
		return nil, "", func() {}, nil
	}
	reg = NewRegistry()
	var srv *Server
	if f.addr != "" {
		if srv, err = Serve(f.addr, reg); err != nil {
			return nil, "", nil, err
		}
		addr = srv.Addr
		fmt.Fprintf(log, "%s: metrics on http://%s/metrics (expvar /debug/vars, pprof /debug/pprof)\n", name, addr)
	}
	stopProgress := reg.StartProgress(log, f.progress)
	return reg, addr, func() { stopProgress(); srv.Close() }, nil
}

// StartProgress launches a goroutine that writes a one-line campaign
// summary to w every interval — probe and event counters, fault drops,
// live heap, and the currently open phase. The returned stop function
// halts the printer, waits for it to finish, and writes one final line so
// a run shorter than the interval still reports its end state; it is safe
// to call once. A nil registry or non-positive interval yields an inert
// stop function.
func (r *Registry) StartProgress(w io.Writer, interval time.Duration) (stop func()) {
	if r == nil || interval <= 0 {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				r.writeProgressLine(w)
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		r.writeProgressLine(w)
	}
}

// writeProgressLine formats one progress sample from atomic shard reads.
func (r *Registry) writeProgressLine(w io.Writer) {
	m := r.Merged()
	drops := m.Counter(CFaultLossDrop) + m.Counter(CFaultBurstDrop) +
		m.Counter(CFaultBlackholed) + m.Counter(CFaultBrownedOut)
	rs := SampleRuntime()
	phase := r.Tracer().Current()
	if phase == "" {
		phase = "-"
	}
	fmt.Fprintf(w,
		"obs[%7.1fs] phase=%s probes=%d recv=%d retrans=%d synth=%d events=%d lost=%d faultdrops=%d heap=%dMB\n",
		time.Since(r.Start()).Seconds(), phase,
		m.Counter(CProbeSent), m.Counter(CProbeRecv), m.Counter(CProbeRetransmits),
		m.Counter(CSynthProbes),
		m.Counter(CSimDelivered)+m.Counter(CSimTimers),
		m.Counter(CSimLost), drops, rs.HeapBytes>>20)
}
