package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"lazydram/internal/exp"
	"lazydram/internal/obs"
	"lazydram/internal/rundoc"
	"lazydram/internal/sim"
	"lazydram/internal/workloads"
)

// jmein is the fastest workload in the suite; every service test runs it so
// the whole file stays race-runnable in seconds.
const testApp = "jmein"

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s := New(cfg)
	t.Cleanup(func() { s.Close() })
	return s
}

func submitOK(t *testing.T, s *Service, spec JobSpec) SubmitResult {
	t.Helper()
	res, code, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v (code %d)", err, code)
	}
	return res
}

// directDoc builds the document a direct `lazysim -json` run would produce
// for the canonicalized job, minus the fields that legitimately differ
// between processes (wall clock, build metadata).
func directDoc(t *testing.T, spec JobSpec) map[string]any {
	t.Helper()
	cj, err := Canonicalize(spec)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := workloads.New(cj.Spec.App)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.MC.QueueSize = cj.Spec.Queue
	cfg.Obs = obsOptions(cj.Spec.Obs)
	res, err := sim.Simulate(kern, cfg, cj.Scheme, cj.Spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rundoc.Encode(rundoc.Build(&res.Run, res, cj.Spec.Seed, 0, topBanks))
	if err != nil {
		t.Fatal(err)
	}
	return flatten(t, raw)
}

// flatten decodes a document and drops the process-dependent fields, the
// same set lazycmp skips.
func flatten(t *testing.T, raw []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("document not valid JSON: %v", err)
	}
	delete(m, "wall_ms")
	delete(m, "meta")
	return m
}

// TestSubmitExecutesAndMatchesDirectRun: a submitted job's served document
// equals a direct in-process simulation built through the same rundoc path,
// field for field (modulo wall clock and build provenance).
func TestSubmitExecutesAndMatchesDirectRun(t *testing.T) {
	s := newTestService(t, Config{})
	spec := JobSpec{App: testApp, Scheme: "baseline"}
	sub := submitOK(t, s, spec)
	if sub.Cached || sub.Joined {
		t.Fatalf("first submission reported cached=%v joined=%v", sub.Cached, sub.Joined)
	}
	if !s.Wait(sub.ID, 2*time.Minute) {
		t.Fatal("job did not finish")
	}
	raw, code, err := s.Result(sub.ID)
	if err != nil || code != http.StatusOK {
		t.Fatalf("result: code %d, err %v", code, err)
	}
	if raw[len(raw)-1] != '\n' {
		t.Fatal("document is not newline-terminated like lazysim -json output")
	}
	got := flatten(t, raw)
	want := directDoc(t, spec)
	if !reflect.DeepEqual(got, want) {
		for k, v := range want {
			if !reflect.DeepEqual(got[k], v) {
				t.Errorf("field %q: daemon %v, direct %v", k, got[k], v)
			}
		}
		t.Fatal("daemon document differs from direct run")
	}

	st, ok := s.Status(sub.ID)
	if !ok || st.State != StateDone {
		t.Fatalf("status after completion: %+v ok=%v", st, ok)
	}
	if st.Span == nil || st.Span.State != "done" {
		t.Fatalf("status missing the runner lifecycle span: %+v", st.Span)
	}
}

// TestRepeatSubmissionServesExactCachedBytes: the second submission of an
// identical spec is a cache hit and /result returns byte-identical output —
// including specs that spell the defaults explicitly.
func TestRepeatSubmissionServesExactCachedBytes(t *testing.T) {
	s := newTestService(t, Config{})
	sub := submitOK(t, s, JobSpec{App: testApp, Scheme: "baseline"})
	s.Wait(sub.ID, 2*time.Minute)
	first, code, err := s.Result(sub.ID)
	if err != nil {
		t.Fatalf("result: %d %v", code, err)
	}

	for _, spec := range []JobSpec{
		{App: testApp, Scheme: "baseline"},
		{App: testApp, Scheme: "base", Seed: DefaultSeed, Queue: DefaultQueue,
			Delay: DefaultDelay, ThRBL: DefaultThRBL,
			Obs: ObsSpec{SampleEvery: DefaultSampleEvery}},
	} {
		again := submitOK(t, s, spec)
		if !again.Cached {
			t.Fatalf("repeat submission %+v was not a cache hit: %+v", spec, again)
		}
		if again.ID != sub.ID {
			t.Fatalf("identical spec got a different id: %s vs %s", again.ID, sub.ID)
		}
		raw, _, err := s.Result(again.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, first) {
			t.Fatal("cached result is not byte-identical to the first serving")
		}
	}
	if runs := s.runner.Stats().Runs; runs != 1 {
		t.Fatalf("runner executed %d distinct runs, want 1", runs)
	}
}

// TestConcurrentSubmitStormExecutesOnce is the acceptance-criteria storm:
// many goroutines submit the identical job concurrently; exactly one
// simulation executes, everyone converges on one id and one byte-identical
// document.
func TestConcurrentSubmitStormExecutesOnce(t *testing.T) {
	s := newTestService(t, Config{})
	const n = 16
	var wg sync.WaitGroup
	ids := make([]string, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			res, code, err := s.Submit(JobSpec{App: testApp, Scheme: "baseline"})
			if err != nil {
				t.Errorf("storm submit %d: %v (code %d)", i, err, code)
				return
			}
			ids[i] = res.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("storm produced divergent ids: %s vs %s", id, ids[0])
		}
	}
	if !s.Wait(ids[0], 2*time.Minute) {
		t.Fatal("storm job did not finish")
	}
	if runs := s.runner.Stats().Runs; runs != 1 {
		t.Fatalf("storm executed %d simulations, want exactly 1", runs)
	}
	sum := s.runlog.Summary()
	if sum.Executed != 1 || sum.Deduped != 0 {
		t.Fatalf("runner saw %d executions / %d joins; service dedupe should "+
			"have admitted exactly one run call", sum.Executed, sum.Deduped)
	}
}

// TestDistinctSeedsExecuteSeparately: jobs differing only in seed get
// different ids, run independently, and cache independently.
func TestDistinctSeedsExecuteSeparately(t *testing.T) {
	s := newTestService(t, Config{})
	a := submitOK(t, s, JobSpec{App: testApp, Scheme: "baseline", Seed: 1})
	b := submitOK(t, s, JobSpec{App: testApp, Scheme: "baseline", Seed: 2})
	if a.ID == b.ID {
		t.Fatal("distinct seeds share a job id")
	}
	s.Wait(a.ID, 2*time.Minute)
	s.Wait(b.ID, 2*time.Minute)
	if runs := s.runner.Stats().Runs; runs != 2 {
		t.Fatalf("runner executed %d runs, want 2", runs)
	}
}

// TestSubmitValidation: malformed specs reject with 400-class errors and
// never reach the queue.
func TestSubmitValidation(t *testing.T) {
	s := newTestService(t, Config{})
	for _, spec := range []JobSpec{
		{},
		{App: testApp},
		{Scheme: "baseline"},
		{App: testApp, Scheme: "no-such-scheme"},
		{App: testApp, Scheme: "baseline", Seed: -4},
	} {
		if _, code, err := s.Submit(spec); err == nil || code != http.StatusBadRequest {
			t.Errorf("spec %+v: code %d err %v, want 400", spec, code, err)
		}
	}
	// An unknown app passes canonicalization (the workload registry is the
	// Runner's concern) but must surface as a job error, not a hang.
	sub := submitOK(t, s, JobSpec{App: "NOPE", Scheme: "baseline"})
	if !s.Wait(sub.ID, time.Minute) {
		t.Fatal("unknown-app job never finished")
	}
	st, _ := s.Status(sub.ID)
	if st.State != StateError || st.Error == "" {
		t.Fatalf("unknown app: state %q err %q, want error state", st.State, st.Error)
	}
	if _, code, _ := s.Result(sub.ID); code != http.StatusInternalServerError {
		t.Fatalf("result of failed job: code %d, want 500", code)
	}
}

// TestQueueFullRejects: with no dispatchers draining it, the bounded queue
// accepts exactly QueueDepth jobs and 503s the rest; draining mode rejects
// everything.
func TestQueueFullRejects(t *testing.T) {
	// White box: a Service with no dispatcher pool, so the queue fills
	// deterministically.
	s := &Service{
		cfg:    Config{},
		runner: exp.NewRunner(exp.Options{Workers: 1}),
		runlog: obs.NewRunLog(obs.RunLogOptions{}),
		cache:  NewCache(1<<20, "", nil),
		jobs:   make(map[string]*job),
		queue:  make(chan *job, 2),
	}
	for seed := int64(1); seed <= 2; seed++ {
		res, code, err := s.Submit(JobSpec{App: testApp, Scheme: "baseline", Seed: seed})
		if err != nil || code != http.StatusAccepted {
			t.Fatalf("seed %d: code %d err %v, want 202", seed, code, err)
		}
		if res.State != StateQueued {
			t.Fatalf("seed %d: state %q, want queued", seed, res.State)
		}
	}
	if _, code, err := s.Submit(JobSpec{App: testApp, Scheme: "baseline", Seed: 3}); err == nil || code != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: code %d err %v, want 503", code, err)
	}
	// A duplicate of a queued job still joins — dedupe needs no queue slot.
	res, code, err := s.Submit(JobSpec{App: testApp, Scheme: "baseline", Seed: 1})
	if err != nil || code != http.StatusAccepted || !res.Joined {
		t.Fatalf("dedupe against full queue: %+v code %d err %v", res, code, err)
	}

	s.closed = true
	if _, code, _ := s.Submit(JobSpec{App: testApp, Scheme: "baseline", Seed: 9}); code != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: code %d, want 503", code)
	}
}

// TestCloseDrainsAndFlushes: Close finishes every accepted job and persists
// the cache to the spill directory; the service then rejects new work.
func TestCloseDrainsAndFlushes(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 2, CacheDir: dir})
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		ids = append(ids, submitOK(t, s, JobSpec{App: testApp, Scheme: "baseline", Seed: seed}).ID)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		st, ok := s.Status(id)
		if !ok || st.State != StateDone {
			t.Fatalf("after close: job %s state %+v", id, st)
		}
		f := filepath.Join(dir, id+".json")
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Fatalf("spill file %s missing after flush: %v", f, err)
		}
	}
	if _, code, _ := s.Submit(JobSpec{App: testApp, Scheme: "baseline", Seed: 9}); code != http.StatusServiceUnavailable {
		t.Fatalf("post-close submit: code %d, want 503", code)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	// Restart over the same spill directory: the document serves without a
	// single simulation.
	s2 := newTestService(t, Config{CacheDir: dir})
	again := submitOK(t, s2, JobSpec{App: testApp, Scheme: "baseline", Seed: 1})
	if !again.Cached {
		t.Fatalf("restarted daemon re-ran a spilled job: %+v", again)
	}
	if runs := s2.runner.Stats().Runs; runs != 0 {
		t.Fatalf("restart executed %d runs, want 0", runs)
	}
}

// TestHTTPAPI drives the full HTTP surface end to end: submit, status,
// result (with wait), report, events, cache stats, service stats, metrics.
func TestHTTPAPI(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestService(t, Config{Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := ts.Client()

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := cl.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, raw
	}

	// Bad specs: malformed JSON, unknown fields, missing app.
	for _, body := range []string{"{", `{"app":"jmein","bogus":1}`, `{"scheme":"baseline"}`} {
		if resp, _ := post(body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	resp, raw := post(fmt.Sprintf(`{"app":%q,"scheme":"dyn-both"}`, testApp))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var sub SubmitResult
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}

	// Blocking result fetch; bare-number wait means seconds.
	res, err := cl.Get(ts.URL + "/v1/jobs/" + sub.ID + "/result?wait=120")
	if err != nil {
		t.Fatal(err)
	}
	docRaw, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d: %s", res.StatusCode, docRaw)
	}
	var docM map[string]any
	if err := json.Unmarshal(docRaw, &docM); err != nil {
		t.Fatalf("result not valid JSON: %v", err)
	}
	if docM["app"] != testApp {
		t.Fatalf("result app = %v", docM["app"])
	}

	// Status carries the span and terminal state.
	res, err = cl.Get(ts.URL + "/v1/jobs/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	stRaw, _ := io.ReadAll(res.Body)
	res.Body.Close()
	var st JobStatus
	if err := json.Unmarshal(stRaw, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Span == nil {
		t.Fatalf("status: %s", stRaw)
	}

	// Unknown id: 404 everywhere.
	for _, path := range []string{"/v1/jobs/deadbeef", "/v1/jobs/deadbeef/result", "/v1/jobs/deadbeef/report", "/v1/jobs/deadbeef/events"} {
		res, err := cl.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, res.StatusCode)
		}
	}

	// Report: self-contained HTML rendered from the cached document.
	res, err = cl.Get(ts.URL + "/v1/jobs/" + sub.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK || !strings.Contains(res.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("report: status %d type %s", res.StatusCode, res.Header.Get("Content-Type"))
	}
	for _, want := range []string{"<svg", "Run summary", testApp} {
		if !strings.Contains(string(page), want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(string(page), "<script") {
		t.Error("report is not self-contained")
	}

	// Events: the terminal job streams at least its final state and closes.
	res, err = cl.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if !strings.Contains(string(events), `"state":"done"`) {
		t.Fatalf("event stream missing terminal state: %s", events)
	}

	// Cache and service stats.
	res, err = cl.Get(ts.URL + "/v1/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	var cs CacheStats
	if err := json.NewDecoder(res.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if cs.Entries != 1 {
		t.Fatalf("cache stats entries = %d, want 1", cs.Entries)
	}
	res, err = cl.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var svcStats Stats
	if err := json.NewDecoder(res.Body).Decode(&svcStats); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if svcStats.Runner.Runs != 1 || svcStats.Jobs != 1 {
		t.Fatalf("service stats: %+v", svcStats)
	}

	// Daemon metric families are live on the same handler.
	res, err = cl.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(res.Body)
	res.Body.Close()
	for _, want := range []string{
		`lazyd_jobs_total{state="submitted"} 1`,
		`lazyd_jobs_total{state="executed"} 1`,
		"lazyd_cache_misses_total 1",
		"lazyd_cache_entries 1",
		"lazyd_queue_depth 0",
		"lazysim_sweep_runs_total", // runner lifecycle families share the registry
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSubmitBodyCap posts a job body past the 64 KiB cap: the daemon must
// answer 413 without decoding it and count the job as rejected.
func TestSubmitBodyCap(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestService(t, Config{Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"app":"` + strings.Repeat("x", maxJobBody) + `"}`
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d (%s), want 413", resp.StatusCode, raw)
	}
	if n := s.Stats().Jobs; n != 0 {
		t.Fatalf("oversized body admitted %d jobs", n)
	}
	res, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if want := `lazyd_jobs_total{state="rejected"} 1`; !strings.Contains(string(prom), want) {
		t.Fatalf("/metrics missing %q", want)
	}
}
