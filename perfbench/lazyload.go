package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"lazydram/internal/obs"
	"lazydram/internal/rundoc"
	"lazydram/internal/service"
)

// lazydApps × lazydSchemes × lazydSeeds distinct small jobs make one cold
// phase of the lazyd-mixed workload.
var (
	lazydApps    = []string{"MVT", "BICG", "ATAX"}
	lazydSchemes = []string{"baseline", "dyn-both"}
)

const (
	lazydSeeds = 2
	// lazydClients is the number of closed-loop clients, and the service's
	// worker count. It is one: the host this benchmark was written on has
	// two shared vCPUs, and with two simulations at once the cold phase's
	// throughput followed how many of them neighbours left free (a 16–36%
	// spread between runs), which the per-goroutine probe cannot correct.
	lazydClients = 1
	// hitsPerClient is how many cached POST+GET pairs each client replays
	// in a round's warm phase; a probing client probes after every
	// hitsPerProbe of them.
	hitsPerClient = 300
	hitsPerProbe  = 25
)

// lazydSpecs derives the cold-phase job set from the benchmark seed.
func lazydSpecs(seed int64, census bool) []service.JobSpec {
	var specs []service.JobSpec
	for s := int64(0); s < lazydSeeds; s++ {
		for _, app := range lazydApps {
			for _, sch := range lazydSchemes {
				specs = append(specs, service.JobSpec{
					App: app, Scheme: sch, Seed: seed*lazydSeeds + s + 1,
					Obs: service.ObsSpec{Census: census},
				})
			}
		}
	}
	return specs
}

type roundOpts struct {
	specs   []service.JobSpec
	clients int
	hits    int // cached POST+GET pairs per client in the warm phase
	// traced also times in-process Service.Submit/Result on every hit and
	// reads each job's lifecycle span after the cold phase.
	traced bool
	// heap measures the live heap after the cold phase (untimed rounds).
	heap bool
	// cals, one per client, probe the host's speed after set-up, after
	// every cold job and after every hitsPerProbe hits (nil: no probing).
	cals []*calibrator
}

// round is one in-process lazyd life: set-up, a cold phase in which every
// job is simulated, and a warm phase that replays the jobs as cache hits.
type round struct {
	setup, cold time.Duration
	miss, hit   []time.Duration
	// fs holds the probes run during set-up and the cold phase, warmFs
	// those run during the warm phase; f(), fSetup() and fWarm() convert
	// the phases' host times to reference time.
	fs, warmFs []speeds
	// jobs and cycles count the cold phase's simulations and their
	// simulated core cycles; liveHeap is set when roundOpts.heap is.
	jobs, cycles, liveHeap uint64
	raw                    [][]byte     // cold result documents, in spec order
	docs                   []rundoc.Doc // the same, decoded
	// allocBytes/mallocs are the process's allocations over the cold phase.
	allocBytes, mallocs uint64

	submitIn, resultIn []time.Duration
	spans              []obs.RunSpanJSON
	cacheHits, misses  uint64
	rejected           int

	tally
}

// f is the cold phase's reference-time factor, fSetup set-up's and fWarm
// the warm phase's (1 without probes).
func (r *round) f() float64      { return factor(r.fs, speeds.sim) }
func (r *round) fSetup() float64 { return factor(r.fs, speeds.short) }
func (r *round) fWarm() float64  { return factor(r.warmFs, speeds.short) }

func factor(ss []speeds, of func(speeds) float64) float64 {
	if len(ss) == 0 {
		return 1
	}
	fs := make([]float64, len(ss))
	for i, s := range ss {
		fs[i] = of(s)
	}
	return median(fs)
}

// client is one closed-loop HTTP client of a round.
type client struct {
	c     *http.Client
	base  string
	track int
}

// do sends one request and returns the body of a 2xx response.
func (c client) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// errRejected marks a submission the service refused.
var errRejected = errors.New("submission rejected")

// submit posts a job and returns the service's answer.
func (c client) submit(spec []byte) (service.SubmitResult, error) {
	var sr service.SubmitResult
	raw, err := c.do(http.MethodPost, "/v1/jobs", spec)
	if err != nil {
		return sr, fmt.Errorf("%w: %v", errRejected, err)
	}
	return sr, json.Unmarshal(raw, &sr)
}

// lazydRound runs one round against a fresh service on a loopback listener.
func lazydRound(e *env, o roundOpts, parent int) (*round, error) {
	r := &round{}
	rid := e.spans.id()
	t0 := time.Now()
	svc := service.New(service.Config{Workers: o.clients})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	srv := &http.Server{Handler: svc.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	tr := &http.Transport{MaxIdleConnsPerHost: o.clients}
	defer func() {
		tr.CloseIdleConnections()
		_ = srv.Shutdown(context.Background()) // idle connections only: every request has returned
		<-served
		svc.Close()
	}()
	hc := &http.Client{Transport: tr, Timeout: 2 * time.Minute}
	base := "http://" + ln.Addr().String()
	if _, err := (client{c: hc, base: base}).do(http.MethodGet, "/healthz", nil); err != nil {
		return nil, fmt.Errorf("lazyd not serving: %w", err)
	}
	r.setup = time.Since(t0)
	e.spans.leaf(rid, 0, "setup", t0, t0.Add(r.setup))
	if o.cals != nil {
		r.fs = append(r.fs, o.cals[0].probe())
	}

	bodies := make([][]byte, len(o.specs))
	for i, s := range o.specs {
		if bodies[i], err = json.Marshal(s); err != nil {
			return nil, err
		}
	}
	ids := make([]string, len(o.specs))
	r.raw = make([][]byte, len(o.specs))
	r.miss = make([]time.Duration, len(o.specs))

	// Cold phase: closed-loop clients take the next job, submit it, and
	// wait for its result.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tc := time.Now()
	work := make(chan int, len(o.specs)) // holds every job index
	for i := range o.specs {
		work <- i
	}
	close(work)
	var mu sync.Mutex // guards r's counters from the client goroutines
	var wg sync.WaitGroup
	for k := 0; k < o.clients; k++ {
		cl := client{c: hc, base: base, track: k + 1}
		var cal *calibrator
		if o.cals != nil {
			cal = o.cals[k]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				id, raw, lat, err := cl.cold(e.spans, rid, bodies[i])
				probed := cal != nil
				var sp speeds
				if probed {
					sp = cal.probe()
				}
				mu.Lock()
				if probed {
					r.fs = append(r.fs, sp)
				}
				r.attempted++
				if errors.Is(err, errRejected) {
					r.rejected++
				}
				if err != nil {
					r.fail("cold job %s/%s seed %d: %v", o.specs[i].App, o.specs[i].Scheme, o.specs[i].Seed, err)
				}
				ids[i], r.raw[i], r.miss[i] = id, raw, lat
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.cold = time.Since(tc)
	runtime.ReadMemStats(&ms1)
	r.allocBytes, r.mallocs = ms1.TotalAlloc-ms0.TotalAlloc, ms1.Mallocs-ms0.Mallocs
	e.spans.leaf(rid, 0, "cold phase", tc, tc.Add(r.cold))
	if r.failed > 0 {
		return r, nil // nothing to replay
	}
	if o.heap {
		r.liveHeap = liveHeap()
	}
	r.docs = make([]rundoc.Doc, len(r.raw))
	for i, raw := range r.raw {
		if err := json.Unmarshal(raw, &r.docs[i]); err != nil {
			return nil, fmt.Errorf("decode result document: %w", err)
		}
		r.jobs++
		r.cycles += r.docs[i].CoreCycles
	}
	if o.traced {
		for _, id := range ids {
			if st, ok := svc.Status(id); ok && st.Span != nil {
				r.spans = append(r.spans, *st.Span)
			}
		}
	}

	// Warm phase: every client replays the jobs round-robin as cache hits,
	// and every hit must serve the cold phase's bytes.
	tw := time.Now()
	for k := 0; k < o.clients; k++ {
		cl := client{c: hc, base: base, track: k + 1}
		var cal *calibrator
		if o.cals != nil {
			cal = o.cals[k]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < o.hits; j++ {
				i := (cl.track + j*o.clients) % len(o.specs)
				lat, err := cl.hit(e.spans, rid, bodies[i], ids[i], r.raw[i])
				var sub, res time.Duration
				if err == nil && o.traced {
					sub, res, err = inProcess(svc, o.specs[i], ids[i])
				}
				probed := cal != nil && (j+1)%hitsPerProbe == 0
				var sp speeds
				if probed {
					sp = cal.probe()
				}
				mu.Lock()
				if probed {
					r.warmFs = append(r.warmFs, sp)
				}
				r.attempted++
				if errors.Is(err, errRejected) {
					r.rejected++
				}
				if err != nil {
					r.fail("hit %s/%s seed %d: %v", o.specs[i].App, o.specs[i].Scheme, o.specs[i].Seed, err)
				} else {
					r.hit = append(r.hit, lat)
					if o.traced {
						r.submitIn = append(r.submitIn, sub)
						r.resultIn = append(r.resultIn, res)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	e.spans.leaf(rid, 0, "warm phase", tw, time.Now())
	cs := svc.Stats().Cache
	r.cacheHits, r.misses = cs.Hits, cs.Misses
	e.spans.add(rid, parent, 0, "lazyd round", t0, time.Now())
	return r, nil
}

// cold submits one job and waits for its result document.
func (c client) cold(spans *spanLog, parent int, spec []byte) (string, []byte, time.Duration, error) {
	id := spans.id()
	t0 := time.Now()
	sr, err := c.submit(spec)
	t1 := time.Now()
	spans.leaf(id, c.track, "submit", t0, t1)
	if err != nil {
		return "", nil, 0, err
	}
	raw, err := c.do(http.MethodGet, "/v1/jobs/"+sr.ID+"/result?wait=2m", nil)
	t2 := time.Now()
	spans.leaf(id, c.track, "result", t1, t2)
	spans.add(id, parent, c.track, "request (miss)", t0, t2)
	return sr.ID, raw, t2.Sub(t0), err
}

// hit replays one finished job: the submission must be answered from the
// cache and the result must be the cold phase's bytes.
func (c client) hit(spans *spanLog, parent int, spec []byte, id string, want []byte) (time.Duration, error) {
	sid := spans.id()
	t0 := time.Now()
	sr, err := c.submit(spec)
	t1 := time.Now()
	spans.leaf(sid, c.track, "submit", t0, t1)
	if err != nil {
		return 0, err
	}
	raw, err := c.do(http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	t2 := time.Now()
	spans.leaf(sid, c.track, "result", t1, t2)
	spans.add(sid, parent, c.track, "request (hit)", t0, t2)
	switch {
	case err != nil:
		return 0, err
	case !sr.Cached || sr.ID != id:
		return 0, fmt.Errorf("submission not served from cache: %+v", sr)
	case !bytes.Equal(raw, want):
		return 0, fmt.Errorf("cached document differs from the cold result (%d vs %d bytes)", len(raw), len(want))
	}
	return t2.Sub(t0), nil
}

// inProcess times Service.Submit and Service.Result for a cached job,
// without HTTP.
func inProcess(svc *service.Service, spec service.JobSpec, id string) (sub, res time.Duration, err error) {
	t0 := time.Now()
	sr, code, err := svc.Submit(spec)
	t1 := time.Now()
	if err != nil || code != http.StatusOK || !sr.Cached {
		return 0, 0, fmt.Errorf("in-process submit: code %d cached %v: %v", code, sr.Cached, err)
	}
	if _, code, err = svc.Result(id); err != nil {
		return 0, 0, fmt.Errorf("in-process result: code %d: %w", code, err)
	}
	return t1.Sub(t0), time.Since(t1), nil
}

// lazydAgg accumulates rounds.
type lazydAgg struct {
	rounds []*round
	// keep retains every round's documents; otherwise they are dropped once
	// checked, so the process's memory does not grow with the run length.
	keep bool
	// first holds the first round's documents: later rounds must repeat
	// their deterministic counters.
	first []rundoc.Doc
}

func (a *lazydAgg) add(rep *report, r *round) {
	rep.add(r.tally)
	if r.docs == nil {
		return
	}
	if a.first == nil {
		a.first = r.docs
	} else {
		for i := range r.docs {
			rep.attempted++
			if d := docDrift(&a.first[i], &r.docs[i]); d != "" {
				rep.fail("job %d re-simulated differently in a later round: %s", i, d)
			}
		}
	}
	if !a.keep {
		r.raw, r.docs = nil, nil
	}
	a.rounds = append(a.rounds, r)
}

// docDrift compares two documents of one job on their deterministic
// counters.
func docDrift(a, b *rundoc.Doc) string {
	ka := [...]any{a.CoreCycles, a.Instructions, a.Reads, a.Writes, a.Activations, a.Dropped, a.AppError}
	kb := [...]any{b.CoreCycles, b.Instructions, b.Reads, b.Writes, b.Activations, b.Dropped, b.AppError}
	if ka != kb {
		return fmt.Sprintf("%v vs %v", ka, kb)
	}
	return ""
}

// lazydRounds runs rounds until d has elapsed, and at least min of them.
func lazydRounds(e *env, agg *lazydAgg, rep *report, census bool, cals []*calibrator, d time.Duration, min, parent int) error {
	start := time.Now()
	for n := 0; n < min || time.Since(start) < d; n++ {
		r, err := lazydRound(e, roundOpts{
			specs: lazydSpecs(e.seed, census), clients: len(cals), hits: hitsPerClient, traced: census, cals: cals,
		}, parent)
		if err != nil {
			return err
		}
		agg.add(rep, r)
	}
	return nil
}

// runLazyd measures the lazyd-mixed workload.
func runLazyd(e *env) (*report, error) {
	rep := &report{}
	cals := make([]*calibrator, lazydClients)
	for i := range cals {
		var err error
		if cals[i], err = newCalibrator(); err != nil {
			return nil, err
		}
	}
	root := e.spans.id()
	start := time.Now()
	// Untimed warm-up round, which also measures the live heap.
	warm, err := lazydRound(e, roundOpts{
		specs: lazydSpecs(e.seed, false), clients: len(cals), hits: hitsPerClient, heap: true,
	}, root)
	if err != nil {
		return nil, err
	}
	(&lazydAgg{}).add(rep, warm)
	heap := warm.liveHeap
	if !e.traced {
		agg := &lazydAgg{}
		if err := lazydRounds(e, agg, rep, false, cals, e.dur, 3, root); err != nil {
			return nil, err
		}
		e.spans.add(root, 0, 0, e.workload, start, time.Now())
		var setup, miss, hit []time.Duration
		var cps, hostCPS, jps, bytesK, allocsK []float64
		for _, r := range agg.rounds {
			f := r.f()
			setup = append(setup, scale(r.setup, r.fSetup()))
			for _, d := range r.miss {
				miss = append(miss, scale(d, f))
			}
			fw := r.fWarm()
			for _, d := range r.hit {
				hit = append(hit, scale(d, fw))
			}
			kc := float64(r.cycles) / 1000
			cps = append(cps, float64(r.cycles)/scale(r.cold, f).Seconds())
			hostCPS = append(hostCPS, float64(r.cycles)/r.cold.Seconds())
			jps = append(jps, float64(r.jobs)/scale(r.cold, f).Seconds())
			bytesK = append(bytesK, float64(r.allocBytes)/kc)
			allocsK = append(allocsK, float64(r.mallocs)/kc)
		}
		rep.endToEnd(median(seconds(setup)), median(cps), median(millis(miss)),
			median(micros(hit)), median(bytesK), median(allocsK), float64(heap)/(1<<20))
		rep.human("host_core_cycles_per_s", "1/s", median(hostCPS))
		hits := micros(hit)
		rep.human("hit_p50_us", "us", median(hits))
		if p, v, ok := tail(hits); ok {
			rep.human(fmt.Sprintf("hit_p%g_us", p), "us", v)
		}
		rep.note("hit latency: %d samples", len(hits))
		rep.human("miss_p50_s", "s", median(seconds(miss)))
		rep.note("miss latency: %d samples", len(miss))
		rep.human("jobs_per_s", "1/s", median(jps))
		rep.human("rounds", "count", float64(len(agg.rounds)))
		return rep, nil
	}

	tA := time.Now()
	plain := &lazydAgg{}
	if err := lazydRounds(e, plain, rep, false, cals, e.dur/3, 2, root); err != nil {
		return nil, err
	}
	prof, err := startProfile(outDir, e.artifact())
	if err != nil {
		return nil, err
	}
	traced := &lazydAgg{keep: true}
	if err := lazydRounds(e, traced, rep, true, cals, e.dur-time.Since(tA), 2, root); err != nil {
		prof.abort()
		return nil, err
	}
	pr, err := prof.stop()
	if err != nil {
		return nil, err
	}
	e.spans.add(root, 0, 0, e.workload, start, time.Now())

	var totals docTotals
	all := &round{}
	var encode []time.Duration
	for _, r := range traced.rounds {
		for i := range r.docs {
			totals.add(&r.docs[i])
			// rundoc.Encode on the document shapes the service encodes.
			t0 := time.Now()
			if _, err := rundoc.Encode(r.docs[i]); err != nil {
				return nil, err
			}
			encode = append(encode, time.Since(t0))
		}
		all.absorb(r)
	}
	coldWall := func(a *lazydAgg) float64 {
		var w []time.Duration
		for _, r := range a.rounds {
			w = append(w, scale(r.cold, r.f()))
		}
		return median(seconds(w))
	}
	rep.perLayer(layerInputs{
		prof:     pr,
		totals:   totals,
		finishMS: ratio(float64(pr.collectNS)/1e6, float64(totals.sims)),
		encodeMS: median(millis(encode)),
		service:  all,
		overhead: coldWall(traced)/coldWall(plain) - 1,
	})
	return rep, nil
}

// absorb appends another round's service-side samples to r.
func (r *round) absorb(o *round) {
	r.raw = append(r.raw, o.raw...)
	r.hit = append(r.hit, o.hit...)
	r.submitIn = append(r.submitIn, o.submitIn...)
	r.resultIn = append(r.resultIn, o.resultIn...)
	r.spans = append(r.spans, o.spans...)
	r.cacheHits += o.cacheHits
	r.misses += o.misses
	r.rejected += o.rejected
}
