package main

import (
	"runtime"
	"time"

	"lazydram/internal/approx"
	"lazydram/internal/mc"
	"lazydram/internal/obs"
	"lazydram/internal/rundoc"
	"lazydram/internal/service"
	"lazydram/internal/sim"
	"lazydram/internal/workloads"
)

// simWorkload is one application under one scheme, simulated sequentially
// through the stepwise entry points (sim.Prepare, GPU.Step, GPU.Finish).
type simWorkload struct{ app, scheme string }

var simWorkloads = map[string]simWorkload{
	"scp-dynboth":   {"SCP", "dyn-both"},
	"fwt-dyndms":    {"FWT", "dyn-dms"},
	"gemm-baseline": {"GEMM", "baseline"},
}

// topBanks matches the lazysim -top-banks default, so the document built
// here is the one `lazysim -json` prints.
const topBanks = 8

// simRep is one timed simulation. Durations are in reference time (see
// calibrator); hostSteps is the step loop's plain host time.
type simRep struct {
	steps, finish, total time.Duration
	hostSteps            time.Duration
	// setups holds the rep's own set-up followed by extraSamples repeats;
	// encodes holds docSamples timings of rundoc.Build+Encode.
	setups, encodes     []time.Duration
	cycles              uint64
	allocBytes, mallocs uint64
	out                 outcome
	doc                 rundoc.Doc
}

// extraSamples is how many more times each rep repeats its set-up, and
// docSamples how many times it encodes its document (both outside the
// allocation count), so those medians rest on more samples than there are
// simulations.
const (
	extraSamples = 4
	docSamples   = 10
)

// heapEvery is the live-heap sampling stride of the warm-up simulation.
const heapEvery = 4096

// probeEvery is how many core cycles of the step loop pass between
// calibration probes: about 10–50 ms of host time on the three workloads.
const probeEvery = 1024

// simRun holds what every repetition of one workload shares.
type simRun struct {
	w      simWorkload
	seed   int64
	scheme mc.Scheme
	golden []float32
	spans  *spanLog
	cal    *calibrator
	// liveHeap is the largest live heap measured so far, in bytes.
	liveHeap uint64
}

// once runs one cold-cache simulation from workloads.New to an encoded run
// document, timing each step.
//
// heapEvery > 0 additionally forces a garbage collection every heapEvery
// core cycles and records the largest live heap seen (untimed runs only).
func (s *simRun) once(cfg sim.Config, parent int, heapEvery uint64) (simRep, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	id := s.spans.id()
	t0 := time.Now()
	kern, err := workloads.New(s.w.app)
	if err != nil {
		return simRep{}, err
	}
	g := sim.Prepare(kern, cfg, s.scheme, s.seed)
	t1 := time.Now()
	// The step loop in stretches of probeEvery cycles, each scaled by the
	// probe that follows it; the probes themselves are not counted.
	var steps, host time.Duration
	var fs, fl []float64
	seg := t1
	for {
		done, err := g.Step()
		if err != nil {
			g.Close()
			return simRep{}, err
		}
		if done || g.CoreCycle()%probeEvery == 0 {
			d := time.Since(seg)
			sp := s.cal.probe()
			steps += scale(d, sp.sim())
			host += d
			fs, fl = append(fs, sp.sim()), append(fl, sp.short())
			seg = time.Now()
		}
		if heapEvery > 0 && g.CoreCycle()%heapEvery == 0 {
			s.liveHeap = max(s.liveHeap, liveHeap())
		}
		if done {
			break
		}
	}
	t2 := time.Now()
	res := g.Finish()
	t3 := time.Now()
	res.Run.AppError = approx.MeanRelativeError(s.golden, res.Output)
	t4 := time.Now()
	doc := rundoc.Build(&res.Run, res, s.seed, t3.Sub(t0), topBanks)
	if _, err := rundoc.Encode(doc); err != nil {
		return simRep{}, err
	}
	t5 := time.Now()
	runtime.ReadMemStats(&ms1)

	s.spans.leaf(id, 0, "prepare", t0, t1)
	s.spans.leaf(id, 0, "step loop", t1, t2)
	s.spans.leaf(id, 0, "finish", t2, t3)
	s.spans.leaf(id, 0, "encode", t4, t5)
	s.spans.add(id, parent, 0, "simulation", t0, t5)
	// The rest of the rep is scaled by the step loop's median factors.
	f := median(fs)
	r := simRep{
		steps: steps, hostSteps: host, finish: scale(t3.Sub(t2), f),
		total:      scale(t1.Sub(t0)+t3.Sub(t2)+t5.Sub(t4), f) + steps,
		setups:     []time.Duration{scale(t1.Sub(t0), median(fl))},
		cycles:     res.Run.CoreCycles,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		mallocs:    ms1.Mallocs - ms0.Mallocs,
		out:        outcomeOf(res, g.MemCycle()),
		doc:        doc,
	}
	// The document timings start from a collected heap, so they measure
	// the encoder rather than whichever GC cycle the simulation left behind.
	// Each sample is scaled by the probe that follows it.
	runtime.GC()
	for i := 0; i < docSamples; i++ {
		t := time.Now()
		if _, err := rundoc.Encode(rundoc.Build(&res.Run, res, s.seed, t3.Sub(t0), topBanks)); err != nil {
			return simRep{}, err
		}
		d := time.Since(t)
		r.encodes = append(r.encodes, scale(d, s.cal.probe().short()))
	}
	for i := 0; i < extraSamples; i++ {
		t := time.Now()
		kern, err := workloads.New(s.w.app)
		if err != nil {
			return simRep{}, err
		}
		sim.Prepare(kern, cfg, s.scheme, s.seed).Close()
		d := time.Since(t)
		r.setups = append(r.setups, scale(d, s.cal.probe().short()))
	}
	return r, nil
}

// repeat runs simulations until d has elapsed, and at least min of them.
func (s *simRun) repeat(cfg sim.Config, d time.Duration, min int, parent int, check func(simRep)) ([]simRep, error) {
	var reps []simRep
	start := time.Now()
	for len(reps) < min || time.Since(start) < d {
		r, err := s.once(cfg, parent, 0)
		if err != nil {
			return nil, err
		}
		check(r)
		reps = append(reps, r)
	}
	return reps, nil
}

// runSim measures one simulation workload. Untraced, it reports the
// end-to-end metrics; traced, it splits the time into an untraced phase and
// a census-on, CPU-profiled phase, and reports the per-layer metrics.
func runSim(e *env, w simWorkload) (*report, error) {
	scheme, err := mc.ParseScheme(w.scheme, service.DefaultDelay, service.DefaultThRBL)
	if err != nil {
		return nil, err
	}
	kern, err := workloads.New(w.app)
	if err != nil {
		return nil, err
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	s := &simRun{
		w: w, seed: e.seed, scheme: scheme, golden: sim.RunFunctional(kern, e.seed),
		spans: e.spans, cal: cal,
	}
	// The configuration `lazysim -json` runs with.
	cfg := sim.DefaultConfig()
	cfg.Obs = obs.Options{Latency: true, SampleEvery: service.DefaultSampleEvery}

	rep := &report{}
	root := e.spans.id()
	start := time.Now()
	warm, err := s.once(cfg, root, heapEvery)
	if err != nil {
		return nil, err
	}
	ref, pin := pinned[e.workload][e.seed]
	if !pin {
		ref = warm.out
	}
	check := func(r simRep) {
		rep.attempted++
		if d := drift(ref, r.out); len(d) > 0 {
			rep.fail("%s seed %d: outcome drifted: %v", e.workload, e.seed, d)
		}
	}
	check(warm)
	rep.note("outcome %+v (pinned: %v)", warm.out, pin)

	if !e.traced {
		reps, err := s.repeat(cfg, e.dur, 3, root, check)
		if err != nil {
			return nil, err
		}
		e.spans.add(root, 0, 0, e.workload, start, time.Now())
		var setup, total, encode []time.Duration
		var cps, hostCPS, bytesK, allocsK []float64
		for _, r := range reps {
			setup = append(setup, r.setups...)
			encode = append(encode, r.encodes...)
			total = append(total, r.total)
			kc := float64(r.cycles) / 1000
			cps = append(cps, float64(r.cycles)/(r.steps+r.finish).Seconds())
			hostCPS = append(hostCPS, float64(r.cycles)/r.hostSteps.Seconds())
			bytesK = append(bytesK, float64(r.allocBytes)/kc)
			allocsK = append(allocsK, float64(r.mallocs)/kc)
		}
		rep.endToEnd(median(seconds(setup)), median(cps), median(millis(total)),
			median(micros(encode)), median(bytesK), median(allocsK), float64(s.liveHeap)/(1<<20))
		rep.human("host_core_cycles_per_s", "1/s", median(hostCPS))
		rep.human("sims", "count", float64(len(reps)))
		return rep, nil
	}

	// Traced: a third of the time untraced, for the overhead baseline...
	tA := time.Now()
	plain, err := s.repeat(cfg, e.dur/3, 2, root, check)
	if err != nil {
		return nil, err
	}
	// ...then the census on and the CPU profile running.
	cfg.Obs.Census = true
	prof, err := startProfile(outDir, e.artifact())
	if err != nil {
		return nil, err
	}
	traced, err := s.repeat(cfg, e.dur-time.Since(tA), 2, root, check)
	if err != nil {
		prof.abort()
		return nil, err
	}
	pr, err := prof.stop()
	if err != nil {
		return nil, err
	}
	// lazyd serving this workload's own job: the service-side layers.
	served, err := lazydRound(e, roundOpts{
		specs:   []service.JobSpec{{App: w.app, Scheme: w.scheme, Seed: e.seed, Obs: service.ObsSpec{Census: true}}},
		clients: 1, hits: hitsPerClient, traced: true,
	}, root)
	if err != nil {
		return nil, err
	}
	e.spans.add(root, 0, 0, e.workload, start, time.Now())
	rep.add(served.tally)
	if e.seed > 0 && len(served.docs) == 1 {
		checkDoc(rep, ref, &served.docs[0])
	}

	var totals docTotals
	var finish, encode []time.Duration
	for i := range traced {
		totals.add(&traced[i].doc)
		finish = append(finish, traced[i].finish)
		encode = append(encode, traced[i].encodes...)
	}
	wallOf := func(rs []simRep) float64 {
		var w []time.Duration
		for _, r := range rs {
			w = append(w, r.steps+r.finish)
		}
		return median(seconds(w))
	}
	rep.perLayer(layerInputs{
		prof:     pr,
		totals:   totals,
		finishMS: median(millis(finish)),
		encodeMS: median(millis(encode)),
		service:  served,
		overhead: wallOf(traced)/wallOf(plain) - 1,
	})
	return rep, nil
}

// checkDoc compares a lazyd document's deterministic counters with the
// direct simulation's outcome: the daemon must serve what the CLI computes.
func checkDoc(rep *report, want outcome, d *rundoc.Doc) {
	rep.attempted++
	got := outcome{
		CoreCycles: d.CoreCycles, Instructions: d.Instructions, Reads: d.Reads,
		Writes: d.Writes, Activations: d.Activations, Dropped: d.Dropped, AppError: d.AppError,
		MemCycles: want.MemCycles, OutputHash: want.OutputHash, // not in the document
	}
	if diff := drift(want, got); len(diff) > 0 {
		rep.fail("lazyd document differs from the direct run: %v", diff)
	}
}
