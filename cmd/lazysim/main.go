// Command lazysim runs one application under one scheduling scheme and
// prints the canonical stat block, including the application error versus a
// golden functional run.
//
// Usage:
//
//	lazysim -app GEMM -scheme dyn-both [-seed 1] [-queue 128] [-delay 128] [-thrbl 8]
//
// Schemes: baseline, static-dms, dyn-dms, static-ams, dyn-ams, static-both,
// dyn-both, dms(X) via -scheme static-dms -delay X, ams(T) via
// -scheme static-ams -thrbl T.
//
// Parallel execution (see DESIGN.md, "Parallel execution"):
//
//	-sweep S1,S2,... multi-run mode: cross every scheme in the list with
//	                 every app in -app (comma-separated, or "all") and print
//	                 one summary row per run; runs execute concurrently
//	-workers N       concurrent simulations in -sweep mode (0: GOMAXPROCS)
//	-runlog PREFIX   in -sweep mode, write the run-lifecycle log to
//	                 PREFIX.trace.json (Chrome trace_event, one track per
//	                 worker slot — open it in Perfetto),
//	                 PREFIX.events.jsonl (one lifecycle event per line) and
//	                 PREFIX.sweep.json (the -sweep -json document)
//
// Observability:
//
//	-json            emit one machine-readable JSON document instead of text
//	-sample-every N  time-series snapshot interval in memory cycles (0 off)
//	-trace FILE      write the DRAM command trace (Chrome trace_event JSON;
//	                 a .jsonl suffix selects the JSONL exporter)
//	-trace-cap N     command-trace ring capacity
//	-metrics-addr A  serve live Prometheus metrics on A (e.g. localhost:9090):
//	                 /metrics is the text exposition, /vars the expvar JSON
//	-top-banks N     hottest-bank summary length in -json output
//	-audit           collect the scheduler decision audit (reason-code
//	                 counters, decision ring, Dyn adaptation trace)
//	-audit-cap N     decision-ring capacity (entries retained)
//	-audit-log FILE  write the retained decisions as JSONL (implies -audit)
//	-quality         score every AMS-dropped line against ground truth
//	                 (error histograms + worst offenders in the telemetry)
//	-census          collect the cycle census: exact stall-cause attribution
//	                 (every waiting cycle charged to one cause), bank
//	                 state-residency, and the skip-ahead opportunity profile
//	                 (telemetry.census in -json, census line in the text block)
//	-census-log FILE write the census summary + per-channel detail as JSONL
//	                 (implies -census)
//	-pprof ADDR      serve net/http/pprof on ADDR (e.g. localhost:6060)
//	-cpuprofile FILE write a CPU profile of the run
//
// Fault injection (the DRAM error model):
//
//	-fault               enable the deterministic DRAM error model
//	-fault-ber R         bus transient bit-error rate per read burst
//	-fault-weak-density D fraction of each row's bits that are weak cells
//	                     (activation/retention failure sites)
//	-fault-seed S        fault-model RNG seed (0: reuse -seed)
//	-fault-retention N   open-row age in memory cycles past which reads
//	                     suffer retention flips
//
// A fault run always scores the workload output against the pristine golden
// run (app_error) and emits a telemetry.fault block in -json with per-mode
// injection counts, the weak-cell census, a determinism digest, and the
// injected-error histogram.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"lazydram/internal/approx"
	"lazydram/internal/buildinfo"
	"lazydram/internal/cliflags"
	"lazydram/internal/energy"
	"lazydram/internal/exp"
	"lazydram/internal/mc"
	"lazydram/internal/obs"
	"lazydram/internal/rundoc"
	"lazydram/internal/sim"
	"lazydram/internal/workloads"
)

func main() {
	var (
		app     = flag.String("app", "GEMM", "application name (see -list)")
		scheme  = flag.String("scheme", "baseline", "scheduling scheme")
		seed    = flag.Int64("seed", 1, "input RNG seed")
		queue   = flag.Int("queue", 128, "pending queue size")
		delay   = flag.Int("delay", 128, "static DMS delay (cycles)")
		thrbl   = flag.Int("thrbl", 8, "static AMS Th_RBL")
		list    = flag.Bool("list", false, "list applications and exit")
		version = flag.Bool("version", false, "print build provenance and exit")

		sweep   = flag.String("sweep", "", "comma-separated scheme list: run every scheme for every -app concurrently and print one row per run")
		workers = flag.Int("workers", 0, "concurrent simulations in -sweep mode (0: GOMAXPROCS)")
		runlog  = flag.String("runlog", "", "in -sweep mode, write PREFIX.trace.json (Chrome trace), PREFIX.events.jsonl (run-lifecycle events) and PREFIX.sweep.json")

		jsonOut  = flag.Bool("json", false, "emit one JSON document with stats and telemetry")
		sampleN  = flag.Uint64("sample-every", 1024, "time-series sampling interval in memory cycles (0 disables)")
		traceOut = flag.String("trace", "", "write the DRAM command trace to this file (.jsonl for JSONL, else Chrome trace_event JSON)")
		traceCap = flag.Int("trace-cap", 1<<18, "DRAM command trace ring capacity (commands retained)")
		golden   = flag.Bool("golden", false, "force the golden functional run even for exact schemes")

		topBanks = flag.Int("top-banks", 8, "number of hottest banks in the -json summary")

		audit    = flag.Bool("audit", false, "collect the scheduler decision audit (reason-code counters, decision ring, Dyn adaptation trace)")
		auditCap = flag.Int("audit-cap", 1<<16, "decision-audit ring capacity (entries retained)")
		auditLog = flag.String("audit-log", "", "write the retained decision-ring entries as JSONL to this file (implies -audit)")
		quality  = flag.Bool("quality", false, "score every AMS-dropped line against ground truth (error histograms + worst offenders)")

		census    = flag.Bool("census", false, "collect the cycle census (exact stall-cause attribution, bank state residency, skip-ahead opportunity profile)")
		censusLog = flag.String("census-log", "", "write the census summary and per-channel detail as JSONL to this file (implies -census)")

		faultOn        = flag.Bool("fault", false, "enable the deterministic DRAM error model")
		faultBER       = flag.Float64("fault-ber", 0, "bus transient bit-error rate per read burst")
		faultDensity   = flag.Float64("fault-weak-density", 0, "fraction of each row's bits that are weak cells")
		faultSeed      = flag.Int64("fault-seed", 0, "fault-model RNG seed (0: reuse -seed)")
		faultRetention = flag.Uint64("fault-retention", 0, "open-row age (memory cycles) past which reads suffer retention flips (0: default)")

		digest  = cliflags.AddDigest(flag.CommandLine)
		metrics = cliflags.AddMetrics(flag.CommandLine)
		prof    = cliflags.AddProfiling(flag.CommandLine)
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get().String())
		return
	}

	if *list {
		for _, n := range workloads.Names() {
			fmt.Printf("%-14s group %d\n", n, workloads.Group(n))
		}
		return
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	if *sweep != "" {
		so := sweepOptions{
			Seed: *seed, Queue: *queue, Delay: *delay, ThRBL: *thrbl,
			Workers: *workers, JSON: *jsonOut, RunLogPrefix: *runlog,
		}
		if metrics.Addr != "" {
			reg := obs.NewRegistry()
			srv, _, err := metrics.Serve(reg)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer srv.Close()
			so.Metrics = reg
		}
		if fi, err := os.Stderr.Stat(); err == nil && fi.Mode()&os.ModeCharDevice != 0 {
			so.Progress = os.Stderr
		}
		if err := runSweep(os.Stdout, *app, *sweep, so); err != nil {
			fmt.Fprintln(os.Stderr, err)
			if errors.As(err, new(sweepListError)) {
				os.Exit(2)
			}
			os.Exit(1)
		}
		return
	}

	sch, err := mc.ParseScheme(*scheme, *delay, *thrbl)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	kern, err := workloads.New(*app)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := sim.DefaultConfig()
	cfg.MC.QueueSize = *queue
	cfg.Obs = obs.Options{
		Latency:     *jsonOut,
		SampleEvery: *sampleN,
	}
	if *censusLog != "" {
		*census = true
	}
	cfg.Obs.Census = *census
	if *traceOut != "" {
		cfg.Obs.TraceCapacity = *traceCap
	}
	if *audit || *auditLog != "" {
		cfg.Obs.AuditCapacity = *auditCap
	}
	cfg.Obs.Quality = *quality
	digest.Normalize()
	cfg.Obs.DigestEvery = digest.Every
	cfg.Obs.DigestCapacity = digest.Cap
	if *faultOn {
		cfg.Fault.Enabled = true
		cfg.Fault.BusBER = *faultBER
		cfg.Fault.WeakCellDensity = *faultDensity
		cfg.Fault.Seed = *faultSeed
		if *faultRetention > 0 {
			cfg.Fault.RetentionThreshold = *faultRetention
		}
	}
	if metrics.Addr != "" {
		reg := obs.NewRegistry()
		cfg.Obs.Metrics = reg
		srv, _, err := metrics.Serve(reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
	}

	start := time.Now()
	res, err := sim.Simulate(kern, cfg, sch, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	wall := time.Since(start)

	// The golden functional run is only needed when the scheme can perturb
	// the output (AMS value prediction or injected faults); exact schemes are
	// bit-identical by construction, so skip the duplicate work unless
	// -golden forces the check. The kernel instance is reused: Setup is
	// deterministic per seed.
	if sch.AMS != mc.Off || *faultOn || *golden {
		goldenOut := sim.RunFunctional(kern, *seed)
		res.Run.AppError = approx.MeanRelativeError(goldenOut, res.Output)
	}

	if *traceOut != "" && res.Trace != nil {
		if err := writeTrace(res.Trace, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *auditLog != "" && res.Audit != nil {
		if err := writeAuditLog(res.Audit, *auditLog); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if digest.Log != "" && res.Digest != nil {
		if err := writeDigestLog(res.Digest, digest.Log); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *censusLog != "" && res.Telemetry != nil && res.Telemetry.Census != nil {
		if err := writeCensusLog(res.Telemetry.Census, *censusLog); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(rundoc.Build(&res.Run, res, *seed, wall, *topBanks)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Print(res.Run.String())
	fmt.Printf("  vp: %d predictions (%d fallbacks)\n", res.VPPredictions, res.VPFallbacks)
	if s := res.Audit.Summary(); s != nil {
		fmt.Printf("  audit: %d decisions (dms holds %d, expiries %d; ams drops %d, skips %d)\n",
			s.Total, s.DMSDelayHolds, s.DMSDelayExpiries, s.AMSDrops, s.AMSSkips)
	}
	if res.Telemetry != nil && res.Telemetry.Quality != nil {
		q := res.Telemetry.Quality
		fmt.Printf("  quality: %d dropped lines, mean rel err %.4g (p99 %.4g, max %.4g)\n",
			q.Lines, q.MeanRelError, q.RelP99, q.MaxRelError)
	}
	if res.Telemetry != nil && res.Telemetry.Census != nil {
		printCensus(res.Telemetry.Census)
	}
	if res.Telemetry != nil && res.Telemetry.Fault != nil {
		f := res.Telemetry.Fault
		fmt.Printf("  fault: %d/%d corrupted reads, flips act=%d ret=%d bus=%d (digest %016x)\n",
			f.CorruptedReads, f.Reads, f.ActFlips, f.RetFlips, f.BusFlips, f.Digest)
		if q := f.Quality; q != nil && q.Lines > 0 {
			fmt.Printf("  fault-error: %d corrupted lines, mean rel err %.4g (p99 %.4g, max %.4g)\n",
				q.Lines, q.MeanRelError, q.RelP99, q.MaxRelError)
		}
	}
	if hot := energy.TopBanks(res.EnergyByChannel, 3); len(hot) > 0 {
		fmt.Printf("  hot banks:")
		for _, h := range hot {
			fmt.Printf(" ch%d.b%d=%.0fnJ(%.1f%%)", h.Channel, h.Bank, h.RowNJ, 100*h.RowShare)
		}
		fmt.Println()
	}
	fmt.Printf("  wall: %v\n", wall.Round(time.Millisecond))
}

// printCensus renders the census stat-block lines: the headline skippable
// fraction, the dominant stall causes, and ingress backpressure if any.
func printCensus(c *obs.CensusSummary) {
	fmt.Printf("  census: %d reqs, %d attributed cycles, skippable %.1f%% (gap p50/p99 %d/%d, max %d)\n",
		c.Requests, c.AttributedCycles, 100*c.SkippableFrac, c.GapP50, c.GapP99, c.GapMax)
	if len(c.Stalls) > 0 {
		fmt.Printf("  stalls:")
		shown := 0
		for _, s := range c.Stalls {
			if s.Share < 0.01 && shown >= 3 {
				continue
			}
			fmt.Printf(" %s=%.0f%%", s.Cause, 100*s.Share)
			shown++
		}
		fmt.Println()
	}
	if in := c.Ingress; in != nil {
		fmt.Printf("  ingress stalls: mshr-full %d, merge-limit %d, queue-full %d\n",
			in.MSHRFull, in.MergeLimit, in.QueueFull)
	}
	if c.InvariantError != "" {
		fmt.Printf("  census INVARIANT VIOLATION: %s\n", c.InvariantError)
	}
}

// writeCensusLog writes the census as JSONL: one machine-level summary line
// (type "summary", channel detail stripped), then one line per channel
// (type "channel") with per-bank residency rows.
func writeCensusLog(c *obs.CensusSummary, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	head := *c
	head.Channels = nil
	if err := enc.Encode(struct {
		Type string `json:"type"`
		*obs.CensusSummary
	}{"summary", &head}); err != nil {
		return err
	}
	for i := range c.Channels {
		if err := enc.Encode(struct {
			Type string `json:"type"`
			obs.ChannelCensus
		}{"channel", c.Channels[i]}); err != nil {
			return err
		}
	}
	return nil
}

func writeDigestLog(d *obs.DigestLog, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return d.WriteJSONL(f)
}

func writeAuditLog(a *obs.AuditLog, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return a.WriteJSONL(f)
}

func writeTrace(tr *obs.CmdTrace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".jsonl") {
		return tr.WriteJSONL(f)
	}
	return tr.WriteChromeTrace(f)
}

// The machine-readable run document (the -json output) is built by
// internal/rundoc, shared with the lazyd daemon so both surfaces emit the
// exact same bytes for the same run.

// sweepOptions carries the -sweep mode knobs.
type sweepOptions struct {
	Seed         int64
	Queue        int
	Delay, ThRBL int
	Workers      int

	// JSON switches the output to one rundoc.SweepDoc (rows + sweep summary
	// block) instead of the text table.
	JSON bool
	// RunLogPrefix, when set, writes PREFIX.trace.json, PREFIX.events.jsonl
	// and PREFIX.sweep.json from the run log.
	RunLogPrefix string
	// Metrics, when set, receives the live sweep families.
	Metrics *obs.Registry
	// Progress, when set, receives the interactive progress line.
	Progress io.Writer
}

// sweepListError is an unknown -app name, a bad -sweep scheme or an empty
// -app or -sweep list,
// found before any run starts; like any usage error it exits 2.
type sweepListError struct{ error }

// runSweep is the -sweep multi-run mode: the cross product of the
// comma-separated app list (or "all") and scheme list executes on an
// exp.Runner worker pool, and one summary row per run prints in declaration
// order regardless of completion order. The concurrent path is singleflighted
// and memoized, so the output is identical to running the points one at a
// time.
func runSweep(w io.Writer, appList, schemeList string, o sweepOptions) error {
	var apps []string
	if known := workloads.Names(); appList == "all" {
		apps = known
	} else {
		for _, a := range strings.Split(appList, ",") {
			if a = strings.TrimSpace(a); a == "" {
				continue
			}
			if !slices.Contains(known, a) {
				return sweepListError{fmt.Errorf("sweep: unknown app %q", a)}
			}
			apps = append(apps, a)
		}
	}
	var schemes []mc.Scheme
	for _, name := range strings.Split(schemeList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		s, err := mc.ParseScheme(name, o.Delay, o.ThRBL)
		if err != nil {
			return sweepListError{err}
		}
		schemes = append(schemes, s)
	}
	if len(apps) == 0 || len(schemes) == 0 {
		return sweepListError{fmt.Errorf("sweep: need at least one app and one scheme")}
	}

	var rl *obs.RunLog
	if o.JSON || o.RunLogPrefix != "" || o.Metrics != nil || o.Progress != nil {
		rl = obs.NewRunLog(obs.RunLogOptions{Metrics: o.Metrics, Progress: o.Progress})
	}
	r := exp.NewRunner(exp.Options{Seed: o.Seed, Apps: apps, Workers: o.Workers, RunLog: rl})
	v := exp.Variant{QueueSize: o.Queue}
	var pts []exp.Point
	for _, app := range apps {
		for _, s := range schemes {
			pts = append(pts, exp.Point{App: app, Scheme: s, Variant: v})
		}
	}
	start := time.Now()
	r.Prefetch(pts...)

	var rows []rundoc.SweepRow
	if !o.JSON {
		fmt.Fprintf(w, "%-14s %-22s %-9s %-12s %-14s %-10s %-10s\n",
			"app", "scheme", "ipc", "activations", "row-energy-nj", "app-error", "coverage")
	}
	for _, p := range pts {
		res, err := r.Run(p.App, p.Scheme, p.Variant)
		if err != nil {
			r.Wait()
			rl.FinishProgress()
			return err
		}
		row := rundoc.SweepRow{
			App: p.App, Scheme: p.Scheme.Name(), IPC: res.Run.IPC(),
			Activations: res.Run.Mem.Activations, RowEnergyNJ: res.Run.RowEnergy,
			AppError: res.Run.AppError, Coverage: res.Run.Mem.Coverage(),
		}
		if secs, ok := r.Timing(p.App, p.Scheme, p.Variant); ok && secs > 0 {
			row.WallSeconds = secs
			row.CyclesPerSec = float64(res.Run.Mem.Cycles) / secs
		}
		rows = append(rows, row)
		if !o.JSON {
			fmt.Fprintf(w, "%-14s %-22s %-9.4f %-12d %-14.0f %-10.4f %-10.4f\n",
				row.App, row.Scheme, row.IPC, row.Activations, row.RowEnergyNJ, row.AppError, row.Coverage)
		}
	}
	r.Wait()
	rl.FinishProgress()
	doc := rundoc.SweepDoc{Meta: rundoc.Meta{Build: buildinfo.Get()}, Seed: o.Seed, Runs: rows, Sweep: rl.Summary()}
	if o.JSON {
		if err := json.NewEncoder(w).Encode(doc); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(w, "%d runs in %v\n", len(pts), time.Since(start).Round(time.Millisecond))
	}
	if o.RunLogPrefix != "" {
		if err := rundoc.WriteRunLog(o.RunLogPrefix, rl, doc); err != nil {
			return err
		}
	}
	return rl.Reconcile()
}
