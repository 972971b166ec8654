package obs

// This file is the sweep-level half of the observability layer: where the
// rest of the package watches one simulation from the inside, RunLog watches
// the experiment harness from above. Every exp.Runner.Run call gets one
// lifecycle span (submitted → golden-wait → queued → running → done/error,
// or submitted → dedup-joined for singleflight joins) with monotonic
// timestamps, the worker slot that executed it, per-run wall-clock,
// simulated cycles, and runtime.MemStats-delta allocation stats. The spans
// are the log's only record: the trace, the event log and the summary are
// derived from them when read, and the registry families are published as
// the spans change. The log exports three views:
//
//   - a Chrome trace_event document (one track per worker slot, one slice
//     per executed run, join instants on the executing slot's track) so a
//     whole sweep opens in Perfetto,
//   - a structured JSONL event log plus a serializable SweepSummary block
//     (total/dedup/error counts, run wall-clock percentiles, worker
//     occupancy, queue-wait histogram),
//   - live registry families (lazysim_sweep_runs_total{state},
//     lazysim_sweep_workers_busy, lazysim_sweep_queue_depth, per-app
//     run-duration gauges) published while the sweep executes, plus an
//     optional TTY progress line.
//
// Determinism contract: the count fields of SweepSummary (runs, executed,
// deduped, errors, events, sim_cycles) are invariant under the worker count
// and scheduling races — every planned point produces exactly one executing
// span and its duplicate Run calls exactly one dedup-joined span each, no
// matter which caller wins the singleflight race. Everything measured in
// wall-clock (the Timing block, prefetch_hits, per-span timestamps) is not,
// and is tagged gate:"-" to stay out of regression gating.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// RunState is the lifecycle state of one sweep-level run span.
type RunState uint8

// Run-lifecycle states. A span either executes (submitted → golden-wait →
// queued → running → done|error; early failures may skip intermediate
// states) or joins another span's in-flight simulation (submitted →
// dedup-joined).
const (
	RunSubmitted RunState = iota
	RunGoldenWait
	RunQueued
	RunRunning
	RunDone
	RunError
	RunJoined
	numRunStates
)

var runStateNames = [numRunStates]string{
	"submitted", "golden-wait", "queued", "running", "done", "error", "dedup-joined",
}

// String returns the state's report name.
func (s RunState) String() string {
	if int(s) < len(runStateNames) {
		return runStateNames[s]
	}
	return fmt.Sprintf("RunState(%d)", uint8(s))
}

// Terminal reports whether the state ends a span.
func (s RunState) Terminal() bool {
	return s == RunDone || s == RunError || s == RunJoined
}

// RunEvent is one timestamped lifecycle transition in the sweep event log.
type RunEvent struct {
	TSMicros int64    // monotonic microseconds since the RunLog was created
	Span     int      // span id the transition belongs to
	State    RunState // state the span entered
	App      string
	Scheme   string
	Worker   int    // executing worker slot (running and later; else -1)
	Target   int    // dedup-joined: span id of the executing flight; else -1
	Prefetch bool   // dedup-joined: the joined flight was prefetch-originated
	Err      string // error state: the failure string
}

// RunSpan is one Run call's lifecycle record. A nil *RunSpan (handed out by
// a nil or disabled RunLog) is valid everywhere and discards everything. All
// mutation goes through the owning log's lock; timestamps are monotonic
// microseconds since the log's creation, so spans from concurrent workers
// order consistently.
type RunSpan struct {
	l *RunLog

	id     int
	app    string
	scheme string
	key    string
	origin string // "call" or "prefetch"

	state    RunState
	worker   int
	target   int
	prefetch bool
	err      string

	submittedUS, goldenUS, queuedUS, startedUS, finishedUS int64

	simCycles  uint64
	allocBytes uint64
	mallocs    uint64
	joins      int
}

// ID returns the span id (-1 for a nil span).
func (sp *RunSpan) ID() int {
	if sp == nil {
		return -1
	}
	return sp.id
}

// RunLogOptions configures a RunLog.
type RunLogOptions struct {
	// Metrics, when non-nil, receives the live sweep families
	// (lazysim_sweep_runs_total{state}, lazysim_sweep_workers_busy,
	// lazysim_sweep_queue_depth, lazysim_sweep_run_seconds{app}).
	Metrics *Registry
	// Progress, when non-nil, receives a single \r-rewritten progress line
	// on every span completion (intended for an interactive stderr).
	Progress io.Writer
}

// RunLog records the sweep-level lifecycle of every Run call. It is safe for
// concurrent use from any number of worker goroutines; a nil *RunLog
// discards everything.
type RunLog struct {
	mu    sync.Mutex
	start time.Time

	workers int
	spans   []*RunSpan

	progress io.Writer

	mState      [numRunStates]*Metric
	mBusy       *Metric
	mQueue      *Metric
	mAppSeconds *Family
}

// NewRunLog creates a run log and registers the sweep metric families when
// a registry is supplied.
func NewRunLog(o RunLogOptions) *RunLog {
	l := &RunLog{start: time.Now(), progress: o.Progress}
	if o.Metrics != nil {
		states := o.Metrics.Register("lazysim_sweep_runs_total",
			"Sweep run-lifecycle transitions by state", KindCounter, "state")
		for s := RunState(0); s < numRunStates; s++ {
			l.mState[s] = states.With(s.String())
		}
		l.mBusy = o.Metrics.Gauge("lazysim_sweep_workers_busy",
			"Worker slots currently executing a simulation")
		l.mQueue = o.Metrics.Gauge("lazysim_sweep_queue_depth",
			"Runs waiting for a worker slot")
		l.mAppSeconds = o.Metrics.Register("lazysim_sweep_run_seconds",
			"Wall-clock seconds of the app's most recently completed run",
			KindGauge, "app")
	}
	return l
}

// SetWorkers records the worker-pool size (used for occupancy and the trace
// track layout). Nil-safe.
func (l *RunLog) SetWorkers(n int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.workers = n
	l.mu.Unlock()
}

// nowLocked returns monotonic microseconds since the log was created.
func (l *RunLog) nowLocked() int64 {
	return time.Since(l.start).Microseconds()
}

// enterLocked moves the span into state and bumps the state's registry
// counter.
func (l *RunLog) enterLocked(sp *RunSpan, state RunState) {
	sp.state = state
	if m := l.mState[state]; m != nil {
		m.Add(1)
	}
}

// visit calls f for every state the span has entered, in lifecycle order,
// with the timestamp the span stores for it.
func (sp *RunSpan) visit(f func(RunState, int64)) {
	f(RunSubmitted, sp.submittedUS)
	if sp.goldenUS >= 0 {
		f(RunGoldenWait, sp.goldenUS)
	}
	if sp.queuedUS >= 0 {
		f(RunQueued, sp.queuedUS)
	}
	if sp.startedUS >= 0 {
		f(RunRunning, sp.startedUS)
	}
	if sp.state.Terminal() {
		f(sp.state, sp.finishedUS)
	}
}

// tallyLocked counts the spans by the state they are in now.
func (l *RunLog) tallyLocked() (n [numRunStates]int) {
	for _, sp := range l.spans {
		n[sp.state]++
	}
	return n
}

// Begin opens a span for one Run call. Origin is "call" for a consuming Run
// and "prefetch" for a plan-initiated flight. Nil-safe (returns a nil span).
func (l *RunLog) Begin(app, scheme, key, origin string) *RunSpan {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	sp := &RunSpan{
		l: l, id: len(l.spans), app: app, scheme: scheme, key: key,
		origin: origin, worker: -1, target: -1,
		submittedUS: l.nowLocked(),
		goldenUS:    -1, queuedUS: -1, startedUS: -1, finishedUS: -1,
	}
	l.spans = append(l.spans, sp)
	l.enterLocked(sp, RunSubmitted)
	return sp
}

// GoldenWait marks the span waiting on the app's golden functional run.
func (sp *RunSpan) GoldenWait() {
	if sp == nil {
		return
	}
	l := sp.l
	l.mu.Lock()
	sp.goldenUS = l.nowLocked()
	l.enterLocked(sp, RunGoldenWait)
	l.mu.Unlock()
}

// Queued marks the span waiting for a worker slot.
func (sp *RunSpan) Queued() {
	if sp == nil {
		return
	}
	l := sp.l
	l.mu.Lock()
	sp.queuedUS = l.nowLocked()
	if l.mQueue != nil {
		l.mQueue.Add(1)
	}
	l.enterLocked(sp, RunQueued)
	l.mu.Unlock()
}

// Running marks the span executing on the given worker slot.
func (sp *RunSpan) Running(worker int) {
	if sp == nil {
		return
	}
	l := sp.l
	l.mu.Lock()
	sp.worker = worker
	sp.startedUS = l.nowLocked()
	if sp.queuedUS >= 0 && l.mQueue != nil {
		l.mQueue.Add(-1)
	}
	if l.mBusy != nil {
		l.mBusy.Add(1)
	}
	l.enterLocked(sp, RunRunning)
	l.mu.Unlock()
}

// Done finalizes an executed span: simulated cycles and the run's
// runtime.MemStats allocation delta (approximate under concurrency — the
// stats are process-global, so overlapping runs attribute each other's
// allocations; the totals are still the right order of magnitude for
// profiling). Must be called while the worker slot is still held, so that
// per-slot spans never overlap in time.
func (sp *RunSpan) Done(simCycles, allocBytes, mallocs uint64) {
	if sp == nil {
		return
	}
	l := sp.l
	l.mu.Lock()
	sp.finishedUS = l.nowLocked()
	sp.simCycles = simCycles
	sp.allocBytes = allocBytes
	sp.mallocs = mallocs
	l.finishRunningLocked(sp)
	l.enterLocked(sp, RunDone)
	l.renderProgressLocked()
	l.mu.Unlock()
}

// Fail finalizes a span that errored at any point of its lifecycle.
func (sp *RunSpan) Fail(err error) {
	if sp == nil {
		return
	}
	l := sp.l
	l.mu.Lock()
	if sp.queuedUS >= 0 && sp.startedUS < 0 && l.mQueue != nil {
		// failed while still queued (cannot happen today, but keep the
		// gauge honest if an error path ever lands between Queued and
		// Running)
		l.mQueue.Add(-1)
	}
	sp.finishedUS = l.nowLocked()
	if err != nil {
		sp.err = err.Error()
	}
	l.finishRunningLocked(sp)
	l.enterLocked(sp, RunError)
	l.renderProgressLocked()
	l.mu.Unlock()
}

// finishRunningLocked retires a running span from the busy gauge and
// publishes its wall clock.
func (l *RunLog) finishRunningLocked(sp *RunSpan) {
	if sp.startedUS < 0 {
		return
	}
	if l.mBusy != nil {
		l.mBusy.Add(-1)
	}
	if l.mAppSeconds != nil {
		l.mAppSeconds.With(sp.app).Set(float64(sp.finishedUS-sp.startedUS) / 1e6)
	}
}

// Joined finalizes the span as a singleflight join onto target's in-flight
// (or memoized) simulation; prefetchHit records that the joined flight was
// initiated by a prefetch plan, i.e. the plan did its job.
func (sp *RunSpan) Joined(target *RunSpan, prefetchHit bool) {
	if sp == nil {
		return
	}
	l := sp.l
	l.mu.Lock()
	sp.finishedUS = l.nowLocked()
	if target != nil {
		sp.target = target.id
		target.joins++
	}
	sp.prefetch = prefetchHit
	l.enterLocked(sp, RunJoined)
	l.renderProgressLocked()
	l.mu.Unlock()
}

// renderProgressLocked rewrites the single TTY progress line.
func (l *RunLog) renderProgressLocked() {
	if l.progress == nil {
		return
	}
	n := l.tallyLocked()
	fmt.Fprintf(l.progress,
		"\r[sweep] %d/%d done · exec %d · dedup %d · err %d · busy %d/%d · queued %d ",
		n[RunDone]+n[RunError]+n[RunJoined], len(l.spans), n[RunDone], n[RunJoined],
		n[RunError], n[RunRunning], l.workers, n[RunQueued])
}

// FinishProgress renders the final progress line and terminates it with a
// newline. Nil-safe; a no-op without a progress writer.
func (l *RunLog) FinishProgress() {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.progress != nil {
		l.renderProgressLocked()
		fmt.Fprintln(l.progress)
	}
	l.mu.Unlock()
}

// Events returns the event log derived from the spans: one event per state
// each span entered, at the timestamp the span stores for it, ordered by
// timestamp, then span id, then lifecycle order.
func (l *RunLog) Events() []RunEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	var out []RunEvent
	for _, sp := range l.spans {
		sp.visit(func(state RunState, ts int64) {
			ev := RunEvent{
				TSMicros: ts, Span: sp.id, State: state,
				App: sp.app, Scheme: sp.scheme, Worker: -1, Target: -1,
			}
			switch {
			case state == RunJoined:
				ev.Target, ev.Prefetch = sp.target, sp.prefetch
			case state >= RunRunning: // sp.worker is -1 for a span that never ran
				ev.Worker = sp.worker
			}
			if state == RunError {
				ev.Err = sp.err
			}
			out = append(out, ev)
		})
	}
	l.mu.Unlock()
	// Spans are visited in id order and each in lifecycle order, so a
	// stable sort on the timestamp and span id keeps lifecycle order
	// within one span's same-microsecond events.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TSMicros != out[j].TSMicros {
			return out[i].TSMicros < out[j].TSMicros
		}
		return out[i].Span < out[j].Span
	})
	return out
}

// RunSpanJSON is the serializable form of one span, embedded in the sweep
// summary so reports can render worker timelines and duration CDFs.
type RunSpanJSON struct {
	ID       int    `json:"id"`
	App      string `json:"app"`
	Scheme   string `json:"scheme"`
	Key      string `json:"key"`
	Origin   string `json:"origin"`
	State    string `json:"state"`
	Worker   int    `json:"worker"`
	Target   int    `json:"target"`
	Prefetch bool   `json:"prefetch_hit,omitempty"`
	Err      string `json:"err,omitempty"`

	SubmittedUS int64 `json:"submitted_us"`
	StartedUS   int64 `json:"started_us"`
	FinishedUS  int64 `json:"finished_us"`
	QueueWaitUS int64 `json:"queue_wait_us"`
	WallUS      int64 `json:"wall_us"`

	SimCycles    uint64  `json:"sim_cycles,omitempty"`
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
	AllocBytes   uint64  `json:"alloc_bytes,omitempty"`
	Mallocs      uint64  `json:"mallocs,omitempty"`
	Joins        int     `json:"joins,omitempty"`
}

// SweepSummary is the serializable digest of one sweep. The count fields
// (Runs, Executed, Deduped, Errors, Events, SimCycles) are deterministic —
// invariant under worker count and singleflight races — and are gated by
// lazycmp; Timing, PrefetchHits and the spans are wall-clock measurements,
// and Workers is a knob, so those are tagged gate:"-".
type SweepSummary struct {
	Runs         int    `json:"runs"`
	Executed     int    `json:"executed"`
	Deduped      int    `json:"deduped"`
	Errors       int    `json:"errors"`
	PrefetchHits int    `json:"prefetch_hits" gate:"-"`
	Events       int    `json:"events"`
	Workers      int    `json:"workers" gate:"-"`
	SimCycles    uint64 `json:"sim_cycles"`

	Timing SweepTiming   `json:"timing" gate:"-"`
	Spans  []RunSpanJSON `json:"spans,omitempty" gate:"-"`
}

// SweepTiming collects the nondeterministic wall-clock measurements of a
// sweep, all ungated (SweepSummary.Timing is tagged gate:"-").
type SweepTiming struct {
	WallSeconds         float64      `json:"wall_seconds"`
	RunMeanSeconds      float64      `json:"run_mean_seconds"`
	RunP50Seconds       float64      `json:"run_p50_seconds"`
	RunP99Seconds       float64      `json:"run_p99_seconds"`
	RunMaxSeconds       float64      `json:"run_max_seconds"`
	QueueWaitP50Seconds float64      `json:"queue_wait_p50_seconds"`
	QueueWaitP99Seconds float64      `json:"queue_wait_p99_seconds"`
	QueueWaitMaxSeconds float64      `json:"queue_wait_max_seconds"`
	WorkerOccupancy     float64      `json:"worker_occupancy"`
	CyclesPerSec        float64      `json:"cycles_per_sec"`
	AllocBytes          uint64       `json:"alloc_bytes"`
	Mallocs             uint64       `json:"mallocs"`
	QueueWaitHist       []HistBucket `json:"queue_wait_hist,omitempty"`
}

const usPerSec = 1e6

// Summary snapshots the log into its serializable form (nil for a nil log).
func (l *RunLog) Summary() *SweepSummary {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.tallyLocked()
	s := &SweepSummary{
		Runs: len(l.spans), Executed: n[RunDone], Deduped: n[RunJoined],
		Errors: n[RunError], Workers: l.workers,
	}
	wallUS := l.nowLocked()
	var busyUS int64
	var runWall, queueWait Histogram // microseconds
	for _, sp := range l.spans {
		sp.visit(func(RunState, int64) { s.Events++ })
		j := l.snapshotLocked(sp)
		busyUS += j.WallUS
		if sp.startedUS >= 0 {
			if sp.queuedUS >= 0 {
				queueWait.Observe(uint64(j.QueueWaitUS))
			}
			if sp.finishedUS >= 0 {
				runWall.Observe(uint64(j.WallUS))
			}
		}
		if sp.state == RunJoined && sp.prefetch {
			s.PrefetchHits++
		}
		s.SimCycles += sp.simCycles
		s.Spans = append(s.Spans, j)
	}
	t := &s.Timing
	t.WallSeconds = float64(wallUS) / usPerSec
	t.RunMeanSeconds = runWall.Mean() / usPerSec
	t.RunP50Seconds = float64(runWall.Percentile(50)) / usPerSec
	t.RunP99Seconds = float64(runWall.Percentile(99)) / usPerSec
	t.RunMaxSeconds = float64(runWall.Max()) / usPerSec
	t.QueueWaitP50Seconds = float64(queueWait.Percentile(50)) / usPerSec
	t.QueueWaitP99Seconds = float64(queueWait.Percentile(99)) / usPerSec
	t.QueueWaitMaxSeconds = float64(queueWait.Max()) / usPerSec
	t.QueueWaitHist = queueWait.Buckets()
	if l.workers > 0 && wallUS > 0 {
		t.WorkerOccupancy = float64(busyUS) / (float64(l.workers) * float64(wallUS))
	}
	if t.WallSeconds > 0 {
		t.CyclesPerSec = float64(s.SimCycles) / t.WallSeconds
	}
	for _, sp := range l.spans {
		t.AllocBytes += sp.allocBytes
		t.Mallocs += sp.mallocs
	}
	return s
}

// snapshotLocked builds the serializable view of one span.
func (l *RunLog) snapshotLocked(sp *RunSpan) RunSpanJSON {
	j := RunSpanJSON{
		ID: sp.id, App: sp.app, Scheme: sp.scheme, Key: sp.key,
		Origin: sp.origin, State: sp.state.String(), Worker: sp.worker,
		Target: sp.target, Prefetch: sp.prefetch, Err: sp.err,
		SubmittedUS: sp.submittedUS, StartedUS: sp.startedUS,
		FinishedUS: sp.finishedUS,
		SimCycles:  sp.simCycles, AllocBytes: sp.allocBytes,
		Mallocs: sp.mallocs, Joins: sp.joins,
	}
	if sp.queuedUS >= 0 && sp.startedUS >= 0 {
		j.QueueWaitUS = sp.startedUS - sp.queuedUS
	}
	if sp.startedUS >= 0 && sp.finishedUS >= 0 {
		j.WallUS = sp.finishedUS - sp.startedUS
		if j.WallUS > 0 {
			j.CyclesPerSec = float64(sp.simCycles) / (float64(j.WallUS) / usPerSec)
		}
	}
	return j
}

// SpanByKey snapshots the most recent span carrying the given run key —
// executing or terminal. The lazyd daemon uses it to map a job's canonical
// run key onto the Runner's live lifecycle state (golden-wait, queued,
// running, done, error) without the service layer duplicating the state
// machine. Returns ok=false for a nil log or an unseen key.
func (l *RunLog) SpanByKey(key string) (RunSpanJSON, bool) {
	if l == nil {
		return RunSpanJSON{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.spans) - 1; i >= 0; i-- {
		if sp := l.spans[i]; sp.key == key && sp.state != RunJoined {
			return l.snapshotLocked(sp), true
		}
	}
	return RunSpanJSON{}, false
}

// WriteEventsJSONL writes the event log, one JSON object per line, in
// timestamp order. Nil-safe (writes nothing).
func (l *RunLog) WriteEventsJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, e := range l.Events() {
		fmt.Fprintf(bw, `{"ts_us":%d,"span":%d,"state":%q,"app":%q,"scheme":%q`,
			e.TSMicros, e.Span, e.State.String(), e.App, e.Scheme)
		if e.Worker >= 0 {
			fmt.Fprintf(bw, `,"worker":%d`, e.Worker)
		}
		if e.State == RunJoined {
			fmt.Fprintf(bw, `,"target":%d,"prefetch_hit":%t`, e.Target, e.Prefetch)
		}
		if e.Err != "" {
			fmt.Fprintf(bw, `,"err":%q`, e.Err)
		}
		if _, err := bw.WriteString("}\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteChromeTrace writes the sweep as a Chrome trace_event document (load
// it at https://ui.perfetto.dev): one thread track per worker slot carrying
// a complete-event slice per executed run, a dedicated track for dedup
// joins whose target never executed, and join instants on the executing
// slot's track. Timestamps are monotonic microseconds, the unit Perfetto
// expects. Nil-safe (writes an empty document).
func (l *RunLog) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	if l != nil {
		l.mu.Lock()
		workers := l.workers
		spans := make([]RunSpanJSON, len(l.spans))
		for i, sp := range l.spans {
			spans[i] = l.snapshotLocked(sp)
		}
		l.mu.Unlock()

		sep := ""
		emit := func(format string, args ...any) {
			fmt.Fprintf(bw, sep+format, args...)
			sep = ","
		}
		emit(`{"ph":"M","pid":0,"name":"process_name","args":{"name":"exp.Runner sweep"}}`)
		for wkr := 0; wkr < workers; wkr++ {
			emit(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":"worker %d"}}`, wkr, wkr)
		}
		emit(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":"dedup joins"}}`, workers)
		// Slices go out in start order, so each worker lane reads in time
		// order: spans are created in Begin order, and a run that began
		// first may have waited behind a later one for its worker slot.
		ran := append([]RunSpanJSON(nil), spans...)
		sort.SliceStable(ran, func(i, j int) bool { return ran[i].StartedUS < ran[j].StartedUS })
		for _, sp := range ran {
			if sp.StartedUS >= 0 && sp.FinishedUS >= 0 {
				// A span shorter than the clock's 1 µs resolution exports
				// as a zero-width slice: widening it would overlap the next
				// slice on its worker lane when that one started within the
				// same microsecond.
				emit(`{"name":%q,"ph":"X","ts":%d,"dur":%d,"pid":0,"tid":%d,"args":{"span":%d,"state":%q,"key":%q,"origin":%q,"sim_cycles":%d,"cycles_per_sec":%.0f,"alloc_bytes":%d,"joins":%d,"err":%q}}`,
					sp.App+"/"+sp.Scheme, sp.StartedUS, sp.WallUS, sp.Worker,
					sp.ID, sp.State, sp.Key, sp.Origin,
					sp.SimCycles, sp.CyclesPerSec, sp.AllocBytes, sp.Joins, sp.Err)
			}
		}
		for _, sp := range spans {
			if sp.State != RunJoined.String() {
				continue
			}
			lane := workers
			if sp.Target >= 0 && sp.Target < len(spans) && spans[sp.Target].Worker >= 0 {
				lane = spans[sp.Target].Worker
			}
			emit(`{"name":%q,"ph":"i","s":"t","ts":%d,"pid":0,"tid":%d,"args":{"span":%d,"target":%d,"prefetch_hit":%t}}`,
				"join "+sp.App+"/"+sp.Scheme, sp.FinishedUS, lane, sp.ID, sp.Target, sp.Prefetch)
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// Reconcile cross-checks the spans against the live registry families and
// returns the first inconsistency found (the event log is derived from the
// spans, so it agrees with them by construction):
//
//   - every span is terminal, and done + error + dedup-joined == total spans
//   - the registry counters (when wired) match the states the spans entered,
//     and the busy/queue gauges have drained to zero
//   - per worker slot, executed spans never overlap in time, and slot ids
//     lie in [0, workers)
//
// It is the machine check behind the CI span-reconciliation gate. Nil-safe
// (a nil log is vacuously consistent).
func (l *RunLog) Reconcile() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()

	var terminal [numRunStates]int
	var fromSpans [numRunStates]int
	byWorker := map[int][]*RunSpan{}
	for _, sp := range l.spans {
		if !sp.state.Terminal() {
			return fmt.Errorf("obs: span %d (%s/%s) not terminal: %s",
				sp.id, sp.app, sp.scheme, sp.state)
		}
		terminal[sp.state]++
		sp.visit(func(s RunState, _ int64) { fromSpans[s]++ })
		if sp.startedUS >= 0 {
			if l.workers > 0 && (sp.worker < 0 || sp.worker >= l.workers) {
				return fmt.Errorf("obs: span %d ran on worker %d, want [0,%d)",
					sp.id, sp.worker, l.workers)
			}
			byWorker[sp.worker] = append(byWorker[sp.worker], sp)
		}
	}
	if got, want := terminal[RunDone]+terminal[RunError]+terminal[RunJoined], len(l.spans); got != want {
		return fmt.Errorf("obs: terminal spans %d != total spans %d", got, want)
	}
	for s := RunState(0); s < numRunStates; s++ {
		if m := l.mState[s]; m != nil && m.Value() != float64(fromSpans[s]) {
			return fmt.Errorf("obs: lazysim_sweep_runs_total{state=%q} = %g, want %d",
				s.String(), m.Value(), fromSpans[s])
		}
	}
	if l.mBusy != nil && l.mBusy.Value() != 0 {
		return fmt.Errorf("obs: lazysim_sweep_workers_busy = %g after sweep end", l.mBusy.Value())
	}
	if l.mQueue != nil && l.mQueue.Value() != 0 {
		return fmt.Errorf("obs: lazysim_sweep_queue_depth = %g after sweep end", l.mQueue.Value())
	}
	for wkr, spans := range byWorker {
		sort.Slice(spans, func(i, j int) bool { return spans[i].startedUS < spans[j].startedUS })
		for i := 1; i < len(spans); i++ {
			if spans[i].startedUS < spans[i-1].finishedUS {
				return fmt.Errorf("obs: worker %d spans %d and %d overlap in time",
					wkr, spans[i-1].id, spans[i].id)
			}
		}
	}
	return nil
}
