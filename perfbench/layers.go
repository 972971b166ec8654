package main

import (
	"time"

	"lazydram/internal/rundoc"
)

// docTotals sums the deterministic counters of the run documents produced
// inside a profiled window, so per-layer host time can be divided by the
// work each layer did.
type docTotals struct {
	sims                               int
	insts, cycles, l1Acc, l1Miss       uint64
	l2Acc, l2Miss, reads, writes, acts uint64
	dropped, vp                        uint64
	busW, occW                         float64 // bwutil and queue_occ, × core cycles
	dmsHold, mshrFull                  uint64
	coreNS, coreTicks, memNS, memTicks uint64
	probeNS, probeTicks, partCycles    uint64
	skipW                              float64 // skippable_frac × partition cycles
}

func (t *docTotals) add(d *rundoc.Doc) {
	t.sims++
	t.insts += d.Instructions
	t.cycles += d.CoreCycles
	t.l1Acc += d.L1Accesses
	t.l1Miss += d.L1Misses
	t.l2Acc += d.L2Accesses
	t.l2Miss += d.L2Misses
	t.reads += d.Reads
	t.writes += d.Writes
	t.acts += d.Activations
	t.dropped += d.Dropped
	t.vp += d.VPPredictions
	t.busW += d.BWUtil * float64(d.CoreCycles)
	t.occW += d.QueueOcc * float64(d.CoreCycles)
	if d.Telemetry == nil || d.Telemetry.Census == nil {
		return
	}
	c := d.Telemetry.Census
	for _, s := range c.Stalls {
		if s.Cause == "dms_hold" {
			t.dmsHold += s.Cycles
		}
	}
	if c.Ingress != nil {
		t.mshrFull += c.Ingress.MSHRFull
	}
	if h := c.Host; h != nil {
		t.coreNS += h.CoreNS
		t.coreTicks += h.CoreTicks
		t.memNS += h.MemNS
		t.memTicks += h.MemTicks
		t.probeNS += h.ProbeNS
		t.probeTicks += h.ProbeTicks
	}
	t.partCycles += c.PartCycles
	t.skipW += c.SkippableFrac * float64(c.PartCycles)
}

// perSim divides a summed count by the number of simulations.
func (t *docTotals) perSim(n uint64) float64 { return ratio(float64(n), float64(t.sims)) }

// layerInputs is everything a traced run measured.
type layerInputs struct {
	prof     *profileResult
	totals   docTotals
	finishMS float64 // host ms per GPU.Finish
	encodeMS float64 // host ms per document encode
	service  *round  // lazyd samples: hits, in-process calls, job spans
	overhead float64 // (traced − untraced wall) ÷ untraced
}

// perLayer reports the per-layer metrics and runs the reconcile check.
func (rep *report) perLayer(in layerInputs) {
	p, t := in.prof, &in.totals
	ns := func(layers ...string) float64 {
		var n int64
		for _, l := range layers {
			n += p.selfNS[l]
		}
		return float64(n)
	}
	for _, l := range layers {
		rep.metric(l+".self_frac", "frac", p.frac(l))
	}
	rep.metric("core.ns_per_inst", "ns", ratio(ns("core", "workloads"), float64(t.insts)))
	rep.metric("core.coro_frac", "frac", ratio(float64(p.coroNS), float64(p.totalNS)))
	rep.metric("core.l1_miss_rate", "frac", ratio(float64(t.l1Miss), float64(t.l1Acc)))

	requests := t.reads + t.writes + t.dropped
	rep.metric("mc.ns_per_request", "ns", ratio(ns("mc"), float64(requests)))
	rep.metric("mc.row_hit_rate", "frac", 1-ratio(float64(t.acts), float64(t.reads+t.writes)))
	rep.metric("mc.dms_hold_cycles", "cycles/sim", t.perSim(t.dmsHold))
	rep.metric("mc.ams_drops", "1/sim", t.perSim(t.dropped))
	rep.metric("mc.queue_occ_mean", "reqs", ratio(t.occW, float64(t.cycles)))
	rep.metric("dram.activations", "1/sim", t.perSim(t.acts))
	rep.metric("dram.bus_util", "frac", ratio(t.busW, float64(t.cycles)))

	rep.metric("cache.ns_per_access", "ns", ratio(ns("cache"), float64(t.l2Acc)))
	rep.metric("cache.l2_miss_rate", "frac", ratio(float64(t.l2Miss), float64(t.l2Acc)))
	rep.metric("cache.mshr_full_cycles", "cycles/sim", t.perSim(t.mshrFull))
	rep.metric("icnt.ns_per_packet", "ns", ratio(ns("icnt"), float64(t.l2Acc)))
	rep.metric("approx.vp_predictions", "1/sim", t.perSim(t.vp))

	rep.metric("sim.core_tick_ns", "ns", ratio(float64(t.coreNS), float64(t.coreTicks)))
	rep.metric("sim.mem_tick_ns", "ns", ratio(float64(t.memNS), float64(t.memTicks)))
	rep.metric("sim.probe_ns", "ns", ratio(float64(t.probeNS), float64(t.probeTicks)))
	rep.metric("sim.skippable_frac", "frac", ratio(t.skipW, float64(t.partCycles)))
	rep.metric("sim.finish_ms", "ms", in.finishMS)

	rep.metric("runtime.alloc_frac", "frac", ratio(float64(p.mallocNS), float64(p.totalNS)))
	rep.metric("runtime.gc_frac", "frac", p.gcFrac)
	rep.metric("runtime.gc_cycles", "1/sim", t.perSim(p.gcCycles))

	s := in.service
	var golden, queue, run []float64
	for _, sp := range s.spans {
		golden = append(golden, float64(sp.StartedUS-sp.SubmittedUS-sp.QueueWaitUS)/1e3)
		queue = append(queue, float64(sp.QueueWaitUS)/1e3)
		run = append(run, float64(sp.WallUS)/1e6)
	}
	rep.metric("exp.golden_ms", "ms", median(golden))
	rep.metric("exp.queue_wait_ms", "ms", median(queue))
	rep.metric("exp.run_s", "s", median(run))
	rep.metric("rundoc.encode_ms", "ms", in.encodeMS)

	submit, result := median(micros(s.submitIn)), median(micros(s.resultIn))
	rep.metric("service.submit_us", "us", submit)
	rep.metric("service.result_us", "us", result)
	rep.metric("service.http_us", "us", median(micros(s.hit))-submit-result)
	rep.metric("service.cache_hit_ratio", "frac", ratio(float64(s.cacheHits), float64(s.cacheHits+s.misses)))
	rep.metric("service.rejected", "count", float64(s.rejected))
	var docBytes int
	for _, raw := range s.raw {
		docBytes += len(raw)
	}
	rep.metric("service.doc_kb", "KiB", ratio(float64(docBytes)/1024, float64(len(s.raw))))

	rep.metric("trace.overhead_frac", "frac", in.overhead)
	rel, err := p.reconcile(p.cpu)
	rep.metric("trace.reconcile_err", "frac", rel)
	rep.attempted++
	if err != nil {
		rep.fail("%v", err)
	}
	rep.note("profile: %d ms sampled over %v wall, %v process CPU",
		p.totalNS/1e6, p.wall.Round(time.Millisecond), p.cpu.Round(time.Millisecond))
}
