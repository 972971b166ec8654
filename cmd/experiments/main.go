// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-out results] [-apps GEMM,SCP] [-seed 1] [-workers N] [ids...]
//
// With no ids, every experiment runs in paper order. Each experiment writes
// <out>/<id>.txt plus any binary artifacts (e.g. Fig. 14's PGM images), and
// echoes its output to stdout.
//
// Observability:
//
//	-runlog PREFIX   record every run's lifecycle (queueing, worker slot,
//	                 wall-clock, dedup joins) and write PREFIX.trace.json
//	                 (Chrome trace_event — open it in Perfetto),
//	                 PREFIX.events.jsonl, and PREFIX.sweep.json (the sweep
//	                 document of lazysim -sweep -json, without run rows)
//	-metrics-addr A  serve the live registry — including the sweep families —
//	                 on A: /metrics (Prometheus text) and /vars (expvar JSON)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lazydram/internal/buildinfo"
	"lazydram/internal/cliflags"
	"lazydram/internal/exp"
	"lazydram/internal/obs"
	"lazydram/internal/rundoc"
)

func main() {
	var (
		out     = flag.String("out", "results", "output directory")
		apps    = flag.String("apps", "", "comma-separated app subset (default: all)")
		seed    = flag.Int64("seed", 1, "workload input seed")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		version = flag.Bool("version", false, "print build provenance and exit")

		workers = flag.Int("workers", 0, "concurrent simulations (0: GOMAXPROCS); results are identical for any value")

		runlog = flag.String("runlog", "", "write PREFIX.trace.json (Chrome trace), PREFIX.events.jsonl, and PREFIX.sweep.json from the run-lifecycle log")

		metrics = cliflags.AddMetrics(flag.CommandLine)
		prof    = cliflags.AddProfiling(flag.CommandLine)
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get().String())
		return
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	if *list {
		for _, id := range exp.IDs() {
			e, _ := exp.Lookup(id)
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	ids := flag.Args()
	if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
		ids = exp.IDs()
	}
	opts := exp.Options{Seed: *seed, Workers: *workers}
	if *apps != "" {
		opts.Apps = strings.Split(*apps, ",")
	}
	var reg *obs.Registry
	if metrics.Addr != "" {
		reg = obs.NewRegistry()
		srv, _, err := metrics.Serve(reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
	}
	var rl *obs.RunLog
	if *runlog != "" || reg != nil {
		rlOpts := obs.RunLogOptions{Metrics: reg}
		if fi, err := os.Stderr.Stat(); err == nil && fi.Mode()&os.ModeCharDevice != 0 {
			rlOpts.Progress = os.Stderr
		}
		rl = obs.NewRunLog(rlOpts)
		opts.RunLog = rl
	}
	runner := exp.NewRunner(opts)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	for _, id := range ids {
		e, ok := exp.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		f, err := os.Create(filepath.Join(*out, id+".txt"))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		w := io.MultiWriter(os.Stdout, f)
		fmt.Fprintf(w, "== %s — %s\n\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(runner, w, *out); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			f.Close()
			os.Exit(1)
		}
		fmt.Fprintf(w, "\n[%s completed in %v]\n", id, time.Since(start).Round(time.Millisecond))
		f.Close()
	}

	if rl != nil {
		runner.Wait()
		rl.FinishProgress()
		sum := rl.Summary()
		if *runlog != "" {
			doc := rundoc.SweepDoc{Meta: rundoc.Meta{Build: buildinfo.Get()}, Seed: *seed, Sweep: sum}
			if err := rundoc.WriteRunLog(*runlog, rl, doc); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		fmt.Fprintf(os.Stderr,
			"runlog: %d runs (%d executed, %d deduped, %d errors) in %.1fs, occupancy %.0f%%\n",
			sum.Runs, sum.Executed, sum.Deduped, sum.Errors,
			sum.Timing.WallSeconds, 100*sum.Timing.WorkerOccupancy)
		if err := rl.Reconcile(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
