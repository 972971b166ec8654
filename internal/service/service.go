package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"lazydram/internal/exp"
	"lazydram/internal/obs"
	"lazydram/internal/report"
	"lazydram/internal/rundoc"
)

// Job lifecycle states as reported by the HTTP API. While a job is
// dispatched, GET /v1/jobs/{id} refines "running" through the Runner's
// lifecycle span (golden-wait, queued-for-worker, running).
const (
	StateQueued  = "queued"  // accepted, waiting for a dispatcher
	StateRunning = "running" // handed to a dispatcher (see span for detail)
	StateDone    = "done"    // result document available
	StateError   = "error"   // simulation failed; see error field
)

// Config configures a Service.
type Config struct {
	// Workers bounds concurrent simulations (0: GOMAXPROCS).
	Workers int
	// QueueDepth bounds accepted-but-not-dispatched jobs; a full queue
	// rejects new work with 503 (0: 64).
	QueueDepth int
	// CacheBytes bounds the resident result cache (0: 256 MiB).
	CacheBytes int64
	// CacheDir enables the disk spill tier ("" disables).
	CacheDir string
	// ShardPartitions / ShardWorkers pass through to exp.Options.
	ShardPartitions bool
	ShardWorkers    int
	// Registry, when non-nil, receives the daemon and sweep metric families
	// (serve it via the handler's /metrics and /vars).
	Registry *obs.Registry
}

// job is one tracked submission chain: the canonical Job plus its lifecycle.
// All mutable fields are guarded by Service.mu; done closes exactly once
// when the job reaches a terminal state.
type job struct {
	*Job
	done chan struct{}

	state string
	err   string
	joins int // later submissions that attached to this record
}

// Service is the simulation-as-a-service core: admission, dedupe, the
// bounded queue, the dispatcher pool, and the result cache. Wrap Handler()
// in an http.Server to serve it; call Close for a graceful drain.
type Service struct {
	cfg    Config
	runner *exp.Runner
	runlog *obs.RunLog
	met    *obs.DaemonMetrics
	cache  *Cache

	mu     sync.Mutex
	jobs   map[string]*job // by content address
	queue  chan *job
	closed bool

	dispatchers sync.WaitGroup
}

// New creates a Service and starts its dispatcher pool.
func New(cfg Config) *Service {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 256 << 20
	}
	met := obs.NewDaemonMetrics(cfg.Registry)
	runlog := obs.NewRunLog(obs.RunLogOptions{Metrics: cfg.Registry})
	runner := exp.NewRunner(exp.Options{
		Workers:         cfg.Workers,
		ShardPartitions: cfg.ShardPartitions,
		ShardWorkers:    cfg.ShardWorkers,
		RunLog:          runlog,
	})
	s := &Service{
		cfg:    cfg,
		runner: runner,
		runlog: runlog,
		met:    met,
		cache:  NewCache(cfg.CacheBytes, cfg.CacheDir, met),
		jobs:   make(map[string]*job),
		queue:  make(chan *job, cfg.QueueDepth),
	}
	// One dispatcher per worker slot: the queue bounds admission, the
	// Runner's semaphore bounds execution, and matching the two means a
	// dispatched job is never parked waiting for a slot behind another
	// dispatcher's job.
	n := runner.Stats().Workers
	s.dispatchers.Add(n)
	for i := 0; i < n; i++ {
		go s.dispatch()
	}
	return s
}

// SubmitResult is the POST /v1/jobs response document.
type SubmitResult struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Cached is set when this submission was answered from the result cache
	// without queueing anything.
	Cached bool `json:"cached,omitempty"`
	// Joined is set when this submission attached to an identical job
	// already queued or running.
	Joined bool `json:"joined,omitempty"`
}

// Submit admits one job: cache hit, dedupe join, or enqueue. The returned
// status is the HTTP code the API reports (200 terminal, 202 accepted,
// 503 saturated or draining).
func (s *Service) Submit(spec JobSpec) (SubmitResult, int, error) {
	cj, err := Canonicalize(spec)
	if err != nil {
		s.met.JobOutcome(obs.JobRejected)
		return SubmitResult{}, http.StatusBadRequest, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.met.JobOutcome(obs.JobRejected)
		return SubmitResult{}, http.StatusServiceUnavailable, fmt.Errorf("service: draining")
	}
	s.met.JobOutcome(obs.JobSubmitted)

	if j, ok := s.jobs[cj.ID]; ok {
		switch j.state {
		case StateDone:
			// Serve the cached document. If both the resident tier and the
			// spill lost it, fall through to re-enqueue: the Runner's memo
			// makes the re-run a cheap re-encode.
			if _, ok := s.cache.Get(j.ID); ok {
				s.met.JobOutcome(obs.JobCacheHit)
				return SubmitResult{ID: j.ID, State: j.state, Cached: true}, http.StatusOK, nil
			}
		case StateError:
			// Failed entries are uncached in the Runner too; a resubmission
			// is an explicit retry.
		default:
			j.joins++
			s.met.JobOutcome(obs.JobDeduped)
			return SubmitResult{ID: j.ID, State: j.state, Joined: true}, http.StatusAccepted, nil
		}
		// Reset the terminal record and run it again. Mutate only after the
		// enqueue succeeds, so a full queue leaves the record terminal
		// instead of stranding it in a queued state nothing will ever drain.
		if !s.enqueueLocked(j) {
			s.met.JobOutcome(obs.JobRejected)
			return SubmitResult{}, http.StatusServiceUnavailable, fmt.Errorf("service: queue full")
		}
		j.state = StateQueued
		j.err = ""
		j.done = make(chan struct{})
		return SubmitResult{ID: j.ID, State: j.state}, http.StatusAccepted, nil
	}

	// First sight of this key: answer from the cache without a job record
	// when possible (e.g. a spilled document from a previous daemon life).
	if _, ok := s.cache.Get(cj.ID); ok {
		j := &job{Job: cj, done: make(chan struct{}), state: StateDone}
		close(j.done)
		s.jobs[cj.ID] = j
		s.met.JobOutcome(obs.JobCacheHit)
		return SubmitResult{ID: j.ID, State: j.state, Cached: true}, http.StatusOK, nil
	}

	j := &job{Job: cj, done: make(chan struct{}), state: StateQueued}
	if !s.enqueueLocked(j) {
		s.met.JobOutcome(obs.JobRejected)
		return SubmitResult{}, http.StatusServiceUnavailable, fmt.Errorf("service: queue full")
	}
	s.jobs[cj.ID] = j
	return SubmitResult{ID: j.ID, State: j.state}, http.StatusAccepted, nil
}

// enqueueLocked offers the job to the bounded queue without blocking.
func (s *Service) enqueueLocked(j *job) bool {
	select {
	case s.queue <- j:
		if s.met != nil {
			s.met.QueueDepth.Add(1)
		}
		return true
	default:
		return false
	}
}

// dispatch is one dispatcher goroutine: it drains the queue until Close
// closes it, running each job to a terminal state.
func (s *Service) dispatch() {
	defer s.dispatchers.Done()
	for j := range s.queue {
		if s.met != nil {
			s.met.QueueDepth.Add(-1)
			s.met.InFlight.Add(1)
		}
		s.execute(j)
		if s.met != nil {
			s.met.InFlight.Add(-1)
		}
	}
}

// execute runs one job through the Runner, encodes the result document, and
// stores it in the cache. The document's wall clock is the memoized
// simulation time (Runner.Timing), so re-encoding after a cache loss
// reproduces identical bytes within one daemon life.
func (s *Service) execute(j *job) {
	s.setState(j, StateRunning)
	res, err := s.runner.Run(j.Spec.App, j.Scheme, j.Variant)
	if err != nil {
		s.finish(j, err)
		return
	}
	secs, _ := s.runner.Timing(j.Spec.App, j.Scheme, j.Variant)
	wall := time.Duration(secs * float64(time.Second))
	doc := rundoc.Build(&res.Run, res, j.Spec.Seed, wall, topBanks)
	raw, err := rundoc.Encode(doc)
	if err != nil {
		s.finish(j, err)
		return
	}
	s.cache.Put(j.ID, raw)
	s.finish(j, nil)
}

func (s *Service) setState(j *job, state string) {
	s.mu.Lock()
	j.state = state
	s.mu.Unlock()
}

// finish moves the job to its terminal state and wakes every waiter.
func (s *Service) finish(j *job, err error) {
	s.mu.Lock()
	if err != nil {
		j.state = StateError
		j.err = err.Error()
		s.met.JobOutcome(obs.JobErrored)
	} else {
		j.state = StateDone
		s.met.JobOutcome(obs.JobExecuted)
	}
	close(j.done)
	s.mu.Unlock()
}

// Close stops admission, drains every queued and in-flight job to a
// terminal state, and flushes the cache's resident tier to the spill
// directory. Safe to call more than once.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.dispatchers.Wait()
		return nil
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.dispatchers.Wait()
	return s.cache.Flush()
}

// JobStatus is the GET /v1/jobs/{id} document.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// Joins counts later identical submissions that attached to this job.
	Joins int     `json:"joins,omitempty"`
	Spec  JobSpec `json:"spec"`
	// Key is the canonical run key the ID content-addresses.
	Key string `json:"key"`
	// Span is the Runner-level lifecycle span (golden-wait, worker queue,
	// execution, timings) once the job has reached the Runner.
	Span *obs.RunSpanJSON `json:"span,omitempty"`
}

// Status reports one job's lifecycle; ok is false for an unknown id.
func (s *Service) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, false
	}
	st := JobStatus{
		ID: j.ID, State: j.state, Error: j.err, Joins: j.joins,
		Spec: j.Spec, Key: j.Key,
	}
	s.mu.Unlock()
	if sp, ok := s.runlog.SpanByKey(st.Key); ok {
		st.Span = &sp
		// While dispatched, the span's state is strictly more precise than
		// the service's coarse "running" (golden-wait vs queued-for-worker
		// vs executing).
		if st.State == StateRunning {
			st.State = sp.State
		}
	}
	return st, true
}

// Result returns the job's cached document. code is the HTTP status the API
// reports: 200 with the bytes, 404 unknown id, 409 not terminal, 410 result
// evicted beyond recovery, 500 terminal error state.
func (s *Service) Result(id string) (raw []byte, code int, err error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var state, jerr string
	if ok {
		state, jerr = j.state, j.err
	}
	s.mu.Unlock()
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("service: unknown job %s", id)
	}
	switch state {
	case StateError:
		return nil, http.StatusInternalServerError, fmt.Errorf("service: job failed: %s", jerr)
	case StateDone:
		if raw, ok := s.cache.Get(id); ok {
			return raw, http.StatusOK, nil
		}
		return nil, http.StatusGone, fmt.Errorf("service: result evicted; resubmit the job")
	default:
		return nil, http.StatusConflict, fmt.Errorf("service: job is %s; retry after completion", state)
	}
}

// Wait blocks until the job reaches a terminal state, the timeout elapses
// (timeout > 0), or the job id is unknown.
func (s *Service) Wait(id string, timeout time.Duration) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	if timeout <= 0 {
		<-j.done
		return true
	}
	select {
	case <-j.done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Stats is the GET /v1/stats document.
type Stats struct {
	Runner     exp.Stats  `json:"runner"`
	QueueDepth int        `json:"queue_depth"`
	Jobs       int        `json:"jobs"`
	Draining   bool       `json:"draining"`
	Cache      CacheStats `json:"cache"`
}

// Stats snapshots the service.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := Stats{QueueDepth: len(s.queue), Jobs: len(s.jobs), Draining: s.closed}
	s.mu.Unlock()
	st.Runner = s.runner.Stats()
	st.Cache = s.cache.Stats()
	return st
}

// Handler returns the HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/cache/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.cache.Stats())
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if s.cfg.Registry != nil {
		mux.Handle("GET /metrics", s.cfg.Registry.Handler())
		mux.Handle("GET /vars", s.cfg.Registry.ExpvarHandler())
	}
	return mux
}

// apiError is the JSON error envelope for every non-2xx response.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// maxJobBody caps a POST /v1/jobs body. A job spec is a few hundred bytes;
// the cap keeps a broken or hostile client from making the daemon read and
// buffer an unbounded body.
const maxJobBody = 64 << 10

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.met.JobOutcome(obs.JobRejected)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				apiError{Error: fmt.Sprintf("job spec exceeds %d bytes", maxJobBody)})
			return
		}
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad job spec: " + err.Error()})
		return
	}
	res, code, err := s.Submit(spec)
	if err != nil {
		writeJSON(w, code, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, code, res)
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleResult serves the cached document. ?wait=DURATION blocks until the
// job is terminal (bounded by the duration; "wait=1" style bare numbers are
// seconds), so clients can submit-then-fetch without polling.
func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if wv := r.URL.Query().Get("wait"); wv != "" {
		d, err := time.ParseDuration(wv)
		if err != nil {
			if secs, serr := time.ParseDuration(wv + "s"); serr == nil {
				d = secs
			} else {
				writeJSON(w, http.StatusBadRequest, apiError{Error: "bad wait duration"})
				return
			}
		}
		s.Wait(id, d)
	}
	raw, code, err := s.Result(id)
	if err != nil {
		writeJSON(w, code, apiError{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(raw)
}

// handleReport renders the cached document as the self-contained lazyreport
// HTML page, on demand.
func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	raw, code, err := s.Result(id)
	if err != nil {
		writeJSON(w, code, apiError{Error: err.Error()})
		return
	}
	doc, err := report.Parse(raw, id)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, report.BuildHTML([]*report.Doc{doc}))
}

// handleEvents streams the job's lifecycle as server-sent events: one
// `data:` line per state change (the JobStatus document), ending after the
// terminal state. Poll-based (100 ms) — state changes are seconds apart.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Status(id); !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job"})
		return
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	last := ""
	for {
		st, ok := s.Status(id)
		if !ok {
			return
		}
		raw, _ := json.Marshal(st)
		if cur := string(raw); cur != last {
			last = cur
			fmt.Fprintf(w, "data: %s\n\n", raw)
			if canFlush {
				fl.Flush()
			}
		}
		if st.State == StateDone || st.State == StateError {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
	}
}
