// Package cliflags registers the flag groups shared by the lazydram
// command-line tools (lazysim, experiments), so the tools agree on flag
// names, defaults, and setup behavior by construction instead of by
// copy-paste. Each Add* helper registers its group on the given FlagSet
// under the exact names the tools have always used; the returned holder's
// methods perform the group's runtime setup after Parse.
package cliflags

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers served by Profiling.Start
	"os"
	"runtime/pprof"

	"lazydram/internal/obs"
)

// Profiling is the -pprof / -cpuprofile group.
type Profiling struct {
	PprofAddr  string
	CPUProfile string
}

// AddProfiling registers the profiling flags on fs.
func AddProfiling(fs *flag.FlagSet) *Profiling {
	p := &Profiling{}
	fs.StringVar(&p.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&p.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	return p
}

// Start binds the pprof listener and begins the CPU profile. The listener is
// bound before the run starts so a bad address fails fast instead of
// silently profiling nothing; errors are returned for the caller to report
// and exit non-zero on. The returned stop function flushes the CPU profile
// and is safe to call when nothing was started.
func (p *Profiling) Start() (stop func(), err error) {
	stop = func() {}
	if p.PprofAddr != "" {
		ln, err := net.Listen("tcp", p.PprofAddr)
		if err != nil {
			return stop, fmt.Errorf("pprof: %w", err)
		}
		go func() {
			if err := http.Serve(ln, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pprof:", err)
			}
		}()
	}
	if p.CPUProfile != "" {
		f, err := os.Create(p.CPUProfile)
		if err != nil {
			return stop, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, err
		}
		stop = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	return stop, nil
}

// Metrics is the -metrics-addr group.
type Metrics struct {
	Addr string
}

// AddMetrics registers the live-metrics flag on fs.
func AddMetrics(fs *flag.FlagSet) *Metrics {
	m := &Metrics{}
	fs.StringVar(&m.Addr, "metrics-addr", "", "serve live /metrics (Prometheus) and /vars (expvar JSON) on this address during the run")
	return m
}

// Serve starts the registry server when -metrics-addr was given and logs the
// bound address to stderr; it returns (nil, "", nil) when the flag is unset.
// Callers own srv.Close.
func (m *Metrics) Serve(reg *obs.Registry) (*http.Server, string, error) {
	if m.Addr == "" {
		return nil, "", nil
	}
	srv, addr, err := ServeMetrics(m.Addr, reg)
	if err != nil {
		return nil, "", err
	}
	fmt.Fprintf(os.Stderr, "metrics: serving http://%s/metrics and /vars\n", addr)
	return srv, addr, nil
}

// ServeMetrics starts an HTTP server exposing the registry: Prometheus text
// exposition at /metrics and expvar-style JSON at /vars. It returns the
// bound address so callers (and tests) can use ":0".
func ServeMetrics(addr string, reg *obs.Registry) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("metrics: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/vars", reg.ExpvarHandler())
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "metrics:", err)
		}
	}()
	return srv, ln.Addr().String(), nil
}

// Job is the flag group describing one simulation job — the same vocabulary
// lazysim uses for a single run, reused by lazyd -submit so the daemon's
// client mode and the CLI agree on names and defaults. The zero values defer
// to the service-side canonical defaults (service.Canonicalize).
type Job struct {
	App         string
	Scheme      string
	Seed        int64
	Queue       int
	Delay       int
	ThRBL       int
	SampleEvery uint64
	Audit       bool
	Quality     bool
	Census      bool
}

// AddJob registers the job-description flags on fs.
func AddJob(fs *flag.FlagSet) *Job {
	j := &Job{}
	fs.StringVar(&j.App, "app", "GEMM", "application name")
	fs.StringVar(&j.Scheme, "scheme", "baseline", "scheduling scheme")
	fs.Int64Var(&j.Seed, "seed", 0, "input RNG seed (0: daemon default)")
	fs.IntVar(&j.Queue, "queue", 0, "pending queue size (0: default)")
	fs.IntVar(&j.Delay, "delay", 0, "static DMS delay in cycles (0: default)")
	fs.IntVar(&j.ThRBL, "thrbl", 0, "static AMS Th_RBL (0: default)")
	fs.Uint64Var(&j.SampleEvery, "sample-every", 0, "time-series sampling interval in memory cycles (0: default)")
	fs.BoolVar(&j.Audit, "audit", false, "collect the scheduler decision audit")
	fs.BoolVar(&j.Quality, "quality", false, "score AMS-dropped lines against ground truth")
	fs.BoolVar(&j.Census, "census", false, "collect the cycle census")
	return j
}

// Digest is the -digest-every / -digest-cap / -digest-log group.
type Digest struct {
	Every uint64
	Cap   int
	Log   string
}

// AddDigest registers the state-digest flight-recorder flags on fs.
func AddDigest(fs *flag.FlagSet) *Digest {
	d := &Digest{}
	fs.Uint64Var(&d.Every, "digest-every", 0, "sample the state-digest flight recorder every N memory cycles (0 disables)")
	fs.IntVar(&d.Cap, "digest-cap", 0, "digest record ring capacity (0: default)")
	fs.StringVar(&d.Log, "digest-log", "", "write the digest record stream as JSONL to this file (implies -digest-every at its default when unset)")
	return d
}

// Normalize applies the -digest-log implication: asking for the log stream
// without an interval enables sampling at the default interval.
func (d *Digest) Normalize() {
	if d.Log != "" && d.Every == 0 {
		d.Every = obs.DefaultDigestEvery
	}
}
