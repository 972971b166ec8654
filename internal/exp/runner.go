// Package exp is the experiment harness: one driver per table/figure of the
// paper's evaluation, all sharing a memoizing Runner so sweeps that revisit
// the same (application, scheme, configuration) point pay for it once.
// cmd/experiments and the repository's benchmarks are thin wrappers over
// this package.
package exp

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"lazydram/internal/approx"
	"lazydram/internal/mc"
	"lazydram/internal/obs"
	"lazydram/internal/sim"
	"lazydram/internal/workloads"
)

// Options configures a Runner.
type Options struct {
	// Seed drives workload input generation (golden and timed runs share it).
	Seed int64
	// Apps restricts the application set (nil: all 20).
	Apps []string
	// Quick shrinks nothing by itself but is recorded so callers can decide
	// to trim sweeps; benchmarks set it.
	Quick bool
	// Workers bounds the number of simulations in flight at once (0 picks
	// GOMAXPROCS). Results are independent of the worker count: every run is
	// keyed and singleflighted, so a point simulates exactly once no matter
	// how many goroutines ask for it, and drivers consume results in paper
	// order regardless of completion order.
	Workers int
	// RunLog, when non-nil, records a lifecycle span for every Run call
	// (queueing, worker slot, wall-clock, dedup joins) — see obs.RunLog.
	// Purely observational: it never changes scheduling or results.
	RunLog *obs.RunLog
}

// Runner executes simulations with memoization and caches golden outputs.
//
// It is safe for concurrent use: each distinct run key simulates exactly
// once (concurrent Run calls on one key join the in-flight simulation), and
// a semaphore sized by Options.Workers bounds how many simulations execute
// at once. Prefetch fans a declared point set out across that pool so a
// driver's subsequent in-order Run calls mostly just collect results.
type Runner struct {
	opts Options
	// slots carries the worker-slot ids (0..Workers-1); receiving one is the
	// semaphore acquire, and the received id tags the run's span so the run
	// log can lay executions out on per-worker trace tracks.
	slots chan int

	mu     sync.Mutex
	runs   map[string]*runEntry
	golden map[string]*goldenEntry

	// prefetches tracks in-flight Prefetch goroutines so Wait (and therefore
	// run-log summaries) can observe a quiesced pool.
	prefetches sync.WaitGroup
}

// runEntry is the singleflight slot for one run key: the first claimant
// simulates and closes done; everyone else waits on done and shares the
// memoized result or error. Entries that end in error are removed from the
// map before done closes, so a later Run on the same key re-executes instead
// of replaying a possibly-transient failure (waiters already joined still
// see the error).
type runEntry struct {
	done chan struct{}
	res  *sim.Result
	err  error

	// wall is the wall-clock sim.Simulate spent executing this run (golden
	// resolution and queueing excluded) — the source for sweep-row
	// wall_seconds/cycles_per_sec without needing a run log.
	wall time.Duration

	// span/prefetched feed the run log: joiners point their dedup-joined
	// spans at the executing span, and flag whether a prefetch plan (rather
	// than another consuming call) started the flight they hit.
	span       *obs.RunSpan
	prefetched bool
}

// goldenEntry is the singleflight slot for one (app, seed) functional run.
type goldenEntry struct {
	done chan struct{}
	out  []float32
	err  error
}

// NewRunner creates a Runner.
func NewRunner(opts Options) *Runner {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	opts.RunLog.SetWorkers(opts.Workers)
	r := &Runner{
		opts:   opts,
		slots:  make(chan int, opts.Workers),
		runs:   make(map[string]*runEntry),
		golden: make(map[string]*goldenEntry),
	}
	for i := 0; i < opts.Workers; i++ {
		r.slots <- i
	}
	return r
}

// Apps returns the application list in evaluation order.
func (r *Runner) Apps() []string {
	if r.opts.Apps != nil {
		return r.opts.Apps
	}
	return workloads.Names()
}

// GroupApps returns the apps of the given paper groups, restricted to the
// runner's app set.
func (r *Runner) GroupApps(groups ...int) []string {
	want := map[int]bool{}
	for _, g := range groups {
		want[g] = true
	}
	var out []string
	for _, a := range r.Apps() {
		if want[workloads.Group(a)] {
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}

// Variant tweaks one run beyond the scheme: pending-queue size, per-run seed,
// and arbitrary config mutation.
type Variant struct {
	QueueSize int // 0: default 128
	// Seed overrides the runner-level Options.Seed for this run (0: inherit).
	// The effective seed is part of the run key, so runs that differ only in
	// seed memoize independently and the golden functional output is resolved
	// per (app, seed).
	Seed   int64
	Mutate func(*sim.Config)
	// Tag must uniquely identify Mutate's effect for memoization; required
	// when Mutate is set.
	Tag string
}

// Point is one planned simulation for Prefetch.
type Point struct {
	App     string
	Scheme  mc.Scheme
	Variant Variant
}

// RunKey is the canonical identity of one simulation: every field that can
// change the run's result document, serialized in a fixed order. It is the
// single source of truth for identity across the whole system — the Runner's
// singleflight map, the service-level job dedupe, and the content-addressed
// result cache (which hashes this string) all key on it, so "same key" always
// means "bit-identical result" (same-seed determinism is CI-gated).
//
// seed must be the effective seed (a Variant.Seed of 0 resolved against the
// runner's default); callers inside the Runner use effectiveSeed. The field
// order is pinned by TestRunKeyCanonicalForm — changing it silently would
// split every persisted cache, so it must never churn.
func RunKey(app string, scheme mc.Scheme, v Variant, seed int64) string {
	return fmt.Sprintf("%s|%s|d%d|t%d|q%d|s%d|%s",
		app, scheme.Name(), scheme.StaticDelay, scheme.StaticThRBL, v.QueueSize, seed, v.Tag)
}

// effectiveSeed resolves a variant's per-run seed against the runner default.
func (r *Runner) effectiveSeed(v Variant) int64 {
	if v.Seed != 0 {
		return v.Seed
	}
	return r.opts.Seed
}

// runKey identifies one memoized simulation.
func (r *Runner) runKey(app string, scheme mc.Scheme, v Variant) string {
	return RunKey(app, scheme, v, r.effectiveSeed(v))
}

// Run simulates app under scheme (memoized, singleflighted) and returns the
// result with AppError filled in against the golden functional run.
func (r *Runner) Run(app string, scheme mc.Scheme, v Variant) (*sim.Result, error) {
	return r.run(app, scheme, v, "call")
}

// run is Run with the span origin ("call" or "prefetch") made explicit.
func (r *Runner) run(app string, scheme mc.Scheme, v Variant, origin string) (*sim.Result, error) {
	key := r.runKey(app, scheme, v)
	sp := r.opts.RunLog.Begin(app, scheme.Name(), key, origin)
	r.mu.Lock()
	if e, ok := r.runs[key]; ok {
		r.mu.Unlock()
		sp.Joined(e.span, e.prefetched)
		<-e.done
		return e.res, e.err
	}
	e := &runEntry{done: make(chan struct{}), span: sp, prefetched: origin == "prefetch"}
	r.runs[key] = e
	r.mu.Unlock()

	e.res, e.wall, e.err = r.simulate(sp, app, scheme, v)
	if e.err != nil {
		// Uncache before waking waiters so a retry re-executes. Waiters that
		// already joined this flight still observe the error; brand-new Run
		// calls start a fresh entry.
		r.mu.Lock()
		if r.runs[key] == e {
			delete(r.runs, key)
		}
		r.mu.Unlock()
	}
	close(e.done)
	return e.res, e.err
}

// simulate executes one run under the worker semaphore and fully finalizes
// the span (Done or Fail) before releasing the worker slot, so per-slot
// spans never overlap in time. A panic anywhere in the run (a Variant's
// Mutate, the simulator, the scoring) becomes the run's error, so it fails
// this run alone and, through run, reaches every joined waiter.
func (r *Runner) simulate(sp *obs.RunSpan, app string, scheme mc.Scheme, v Variant) (res *sim.Result, wall time.Duration, err error) {
	slot := -1
	defer func() {
		if p := recover(); p != nil {
			res, wall, err = nil, 0, fmt.Errorf("%s/%s: panic: %v", app, scheme.Name(), p)
		}
		if err != nil {
			sp.Fail(err)
		}
		if slot >= 0 {
			r.slots <- slot
		}
	}()
	kern, err := workloads.New(app)
	if err != nil {
		return nil, 0, err
	}
	cfg := sim.DefaultConfig()
	if v.QueueSize > 0 {
		cfg.MC.QueueSize = v.QueueSize
	}
	if v.Mutate != nil {
		if v.Tag == "" {
			return nil, 0, fmt.Errorf("exp: Variant.Mutate requires a Tag for %s", app)
		}
		v.Mutate(&cfg)
	}
	// Resolve the golden output before taking a worker slot: Golden may wait
	// on another goroutine's in-flight functional run, which must not happen
	// while holding a slot that run's caller might be queued for.
	seed := r.effectiveSeed(v)
	sp.GoldenWait()
	golden, err := r.goldenFor(app, seed)
	if err != nil {
		return nil, 0, err
	}
	sp.Queued()
	slot = <-r.slots
	sp.Running(slot)
	var before runtime.MemStats
	logging := r.opts.RunLog != nil
	if logging {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	res, err = sim.Simulate(kern, cfg, scheme, seed)
	wall = time.Since(start)
	var allocBytes, mallocs uint64
	if logging {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		// Process-global counters: under concurrency overlapping runs
		// attribute each other's allocations, so these are profiling
		// order-of-magnitude figures, not exact per-run costs.
		allocBytes = after.TotalAlloc - before.TotalAlloc
		mallocs = after.Mallocs - before.Mallocs
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%s/%s: %w", app, scheme.Name(), err)
	}
	res.Run.AppError = approx.MeanRelativeError(golden, res.Output)
	sp.Done(res.Run.Mem.Cycles, allocBytes, mallocs)
	return res, wall, nil
}

// Timing returns the wall-clock seconds the memoized run for the given
// point spent inside sim.Simulate. Deduped callers share the executing
// run's time. ok is false while the run is still in flight, failed, or was
// never requested.
func (r *Runner) Timing(app string, scheme mc.Scheme, v Variant) (seconds float64, ok bool) {
	r.mu.Lock()
	e := r.runs[r.runKey(app, scheme, v)]
	r.mu.Unlock()
	if e == nil {
		return 0, false
	}
	select {
	case <-e.done:
	default:
		return 0, false
	}
	if e.err != nil {
		return 0, false
	}
	return e.wall.Seconds(), true
}

// Prefetch declares a point set up front and fans it out across the worker
// pool without waiting for completion. Drivers call it with every point they
// are about to consume, then collect results in paper order through the
// normal Run/Baseline/... calls, which join the in-flight simulations.
// Errors surface on those consuming calls (a prefetched point nobody
// consumes keeps its error memoized but never reports it).
func (r *Runner) Prefetch(points ...Point) {
	r.prefetches.Add(len(points))
	for _, p := range points {
		p := p
		go func() {
			defer r.prefetches.Done()
			_, _ = r.run(p.App, p.Scheme, p.Variant, "prefetch")
		}()
	}
}

// Wait blocks until every Prefetch goroutine has completed (joined or
// executed). Callers that snapshot the run log (summary, reconciliation,
// trace export) should Wait first so the span set is complete; results
// themselves never need it — consuming Run calls already join in-flight
// work.
func (r *Runner) Wait() { r.prefetches.Wait() }

// PrefetchSchemes is shorthand for prefetching the cross product
// apps x schemes with the default variant.
func (r *Runner) PrefetchSchemes(apps []string, schemes ...mc.Scheme) {
	pts := make([]Point, 0, len(apps)*len(schemes))
	for _, app := range apps {
		for _, s := range schemes {
			pts = append(pts, Point{App: app, Scheme: s})
		}
	}
	r.Prefetch(pts...)
}

// Golden returns (computing once, singleflighted) the exact functional
// output of app under the runner's default seed. The error is the
// workloads.New lookup error for an unknown app, so a misspelled name
// surfaces instead of scoring every run against a nil output.
func (r *Runner) Golden(app string) ([]float32, error) {
	return r.goldenFor(app, r.opts.Seed)
}

// goldenFor is Golden keyed by (app, seed): runs with a per-variant seed
// override score against the functional output of their own seed.
func (r *Runner) goldenFor(app string, seed int64) ([]float32, error) {
	key := fmt.Sprintf("%s|s%d", app, seed)
	r.mu.Lock()
	if e, ok := r.golden[key]; ok {
		r.mu.Unlock()
		<-e.done
		return e.out, e.err
	}
	e := &goldenEntry{done: make(chan struct{})}
	r.golden[key] = e
	r.mu.Unlock()

	e.out, e.err = functional(app, seed)
	if e.err != nil {
		// Mirror run's retry semantics: drop the failed entry before waking
		// waiters so a later Golden call re-resolves instead of replaying.
		r.mu.Lock()
		if r.golden[key] == e {
			delete(r.golden, key)
		}
		r.mu.Unlock()
	}
	close(e.done)
	return e.out, e.err
}

// functional computes app's golden output for seed. A panic in the kernel
// becomes the error, so the golden entry's waiters are always released.
func functional(app string, seed int64) (out []float32, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, fmt.Errorf("%s: functional run: panic: %v", app, p)
		}
	}()
	kern, err := workloads.New(app)
	if err != nil {
		return nil, err
	}
	return sim.RunFunctional(kern, seed), nil
}

// Stats is a point-in-time snapshot of the runner's execution state, exposed
// so a long-running host (the lazyd daemon) can report pool pressure without
// reaching into the run log.
type Stats struct {
	// Workers is the worker-pool size (Options.Workers after defaulting).
	Workers int `json:"workers"`
	// Busy is the number of worker slots currently executing a simulation.
	Busy int `json:"busy"`
	// Runs is the number of memoized run entries (in flight or completed;
	// failed entries are uncached and do not count).
	Runs int `json:"runs"`
	// Golden is the number of memoized (app, seed) functional outputs.
	Golden int `json:"golden"`
}

// Stats snapshots the runner. Busy is read from the slot channel, so it is
// exact at the instant of the call but immediately stale; use it for
// monitoring, not for scheduling decisions.
func (r *Runner) Stats() Stats {
	r.mu.Lock()
	runs, golden := len(r.runs), len(r.golden)
	r.mu.Unlock()
	return Stats{
		Workers: r.opts.Workers,
		Busy:    r.opts.Workers - len(r.slots),
		Runs:    runs,
		Golden:  golden,
	}
}

// DMSScheme is Static-DMS with the given delay; run keys built from it match
// the DMS helper, so drivers can Prefetch sweep points.
func DMSScheme(delay int) mc.Scheme {
	s := mc.StaticDMS
	s.StaticDelay = delay
	return s
}

// AMSScheme is Static-AMS with the given Th_RBL.
func AMSScheme(th int) mc.Scheme {
	s := mc.StaticAMS
	s.StaticThRBL = th
	return s
}

// BothScheme is Static-DMS(delay)+Static-AMS(th).
func BothScheme(delay, th int) mc.Scheme {
	s := mc.StaticBoth
	s.StaticDelay = delay
	s.StaticThRBL = th
	return s
}

// Baseline is shorthand for the default-configuration baseline run.
func (r *Runner) Baseline(app string) (*sim.Result, error) {
	return r.Run(app, mc.Baseline, Variant{})
}

// DMS returns the Static-DMS(X) run for app.
func (r *Runner) DMS(app string, delay int) (*sim.Result, error) {
	return r.Run(app, DMSScheme(delay), Variant{})
}

// AMS returns the Static-AMS(th) run for app.
func (r *Runner) AMS(app string, th int) (*sim.Result, error) {
	return r.Run(app, AMSScheme(th), Variant{})
}

// Both returns the Static-DMS(delay)+Static-AMS(th) run for app.
func (r *Runner) Both(app string, delay, th int) (*sim.Result, error) {
	return r.Run(app, BothScheme(delay, th), Variant{})
}
