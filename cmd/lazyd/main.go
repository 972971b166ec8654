// Command lazyd is the simulation-as-a-service daemon: an HTTP/JSON API
// over the exp.Runner worker pool with a bounded job queue and a
// content-addressed result cache (see internal/service).
//
// Daemon mode:
//
//	lazyd -addr 127.0.0.1:7090 -workers 4 -cache-dir /var/cache/lazyd
//
// Endpoints: POST /v1/jobs, GET /v1/jobs/{id} (+ /result, /report,
// /events), GET /v1/cache/stats, GET /v1/stats, GET /metrics, GET /vars,
// GET /healthz. SIGINT/SIGTERM triggers a graceful drain: admission stops,
// queued and in-flight jobs run to completion, the cache flushes to the
// spill directory, and the process exits 0.
//
// Client mode (-submit) posts one job to a running daemon, waits for it,
// and prints the result document to stdout:
//
//	lazyd -submit -addr 127.0.0.1:7090 -app SCP -scheme dyn-both -seed 3
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lazydram/internal/buildinfo"
	"lazydram/internal/cliflags"
	"lazydram/internal/obs"
	"lazydram/internal/service"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a connection that trickles them in cannot hold a server
// goroutine open indefinitely.
const readHeaderTimeout = 10 * time.Second

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7090", "HTTP listen address (daemon) or daemon address (-submit)")
		workers = flag.Int("workers", 0, "concurrent simulations (0: GOMAXPROCS)")
		qdepth  = flag.Int("queue-depth", 64, "bounded job queue capacity; a full queue rejects with 503")
		cacheMB = flag.Int64("cache-mb", 256, "resident result-cache bound in MiB")
		dir     = flag.String("cache-dir", "", "disk spill directory for evicted results (empty: memory only)")
		submit  = flag.Bool("submit", false, "client mode: POST one job to the daemon at -addr and print the result")
		wait    = flag.Duration("wait", 10*time.Minute, "client mode: how long to wait for the result")
		version = flag.Bool("version", false, "print build provenance and exit")

		job   = cliflags.AddJob(flag.CommandLine)
		shard = cliflags.AddShard(flag.CommandLine)
		prof  = cliflags.AddProfiling(flag.CommandLine)
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get().String())
		return
	}
	if *submit {
		os.Exit(runSubmit(os.Stdout, os.Stderr, *addr, *wait, job))
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lazyd:", err)
		os.Exit(1)
	}
	defer stopProf()

	svc := service.New(service.Config{
		Workers:         *workers,
		QueueDepth:      *qdepth,
		CacheBytes:      *cacheMB << 20,
		CacheDir:        *dir,
		ShardPartitions: shard.Enabled,
		ShardWorkers:    shard.Workers,
		Registry:        obs.NewRegistry(),
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lazyd:", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "lazyd: serving http://%s (workers %d, queue %d)\n",
		ln.Addr(), svc.Stats().Runner.Workers, *qdepth)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "lazyd:", err)
		os.Exit(1)
	}

	// Graceful drain: stop accepting (listener down), finish queued and
	// in-flight jobs, flush the cache, then exit 0.
	fmt.Fprintln(os.Stderr, "lazyd: draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "lazyd: http shutdown:", err)
	}
	if err := svc.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "lazyd:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "lazyd: drained")
}

// runSubmit is the thin HTTP client: one POST, one blocking result GET.
func runSubmit(stdout, stderr io.Writer, addr string, wait time.Duration, job *cliflags.Job) int {
	spec := service.JobSpec{
		App: job.App, Scheme: job.Scheme, Seed: job.Seed,
		Queue: job.Queue, Delay: job.Delay, ThRBL: job.ThRBL,
		Obs: service.ObsSpec{
			SampleEvery: job.SampleEvery,
			Audit:       job.Audit, Quality: job.Quality, Census: job.Census,
		},
	}
	body, err := json.Marshal(spec)
	if err != nil {
		fmt.Fprintln(stderr, "lazyd:", err)
		return 1
	}
	base := "http://" + addr
	cl := &http.Client{Timeout: wait + time.Minute}
	resp, err := cl.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintln(stderr, "lazyd:", err)
		return 1
	}
	defer resp.Body.Close()
	var sub service.SubmitResult
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(resp.Body)
		fmt.Fprintf(stderr, "lazyd: submit: %s: %s", resp.Status, msg)
		return 1
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		fmt.Fprintln(stderr, "lazyd:", err)
		return 1
	}
	fmt.Fprintf(stderr, "lazyd: job %s %s\n", sub.ID, describeSubmit(sub))

	res, err := cl.Get(fmt.Sprintf("%s/v1/jobs/%s/result?wait=%s", base, sub.ID, wait))
	if err != nil {
		fmt.Fprintln(stderr, "lazyd:", err)
		return 1
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		fmt.Fprintln(stderr, "lazyd:", err)
		return 1
	}
	if res.StatusCode != http.StatusOK {
		fmt.Fprintf(stderr, "lazyd: result: %s: %s", res.Status, raw)
		return 1
	}
	stdout.Write(raw)
	return 0
}

func describeSubmit(sub service.SubmitResult) string {
	switch {
	case sub.Cached:
		return "served from cache"
	case sub.Joined:
		return "joined in-flight job"
	default:
		return sub.State
	}
}
