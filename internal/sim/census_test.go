package sim_test

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"lazydram/internal/mc"
	"lazydram/internal/obs"
	"lazydram/internal/sim"
)

// stageSums indexes a telemetry stage table by name.
func stageSums(t *testing.T, tel *obs.Telemetry) map[string]obs.StageSummary {
	t.Helper()
	out := make(map[string]obs.StageSummary, len(tel.Stages))
	for _, s := range tel.Stages {
		out[s.Stage] = s
	}
	return out
}

// checkCensus asserts every invariant the census advertises, using only the
// serialized summary (the same artifact lazysim -json emits): the Σ stall
// decomposition equals the independently measured tracer latency, residency
// is a total bank-cycle classification, and the partition census partitions
// the run's memory cycles.
func checkCensus(t *testing.T, res *sim.Result, vpLat uint64) *obs.CensusSummary {
	t.Helper()
	if res.Telemetry == nil || res.Telemetry.Census == nil {
		t.Fatal("telemetry census missing with Obs.Census set")
	}
	cen := res.Telemetry.Census
	if cen.InvariantError != "" {
		t.Fatalf("census invariant violated: %s", cen.InvariantError)
	}
	if cen.AttributedCycles != cen.LatencyCycles {
		t.Fatalf("attributed %d != latency %d", cen.AttributedCycles, cen.LatencyCycles)
	}

	// Cross-check against the latency tracer, which measures the same
	// requests through entirely separate bookkeeping: the census total must
	// equal queue + DRAM service for served requests plus queue + VP reply
	// latency for AMS drops, cycle for cycle.
	st := stageSums(t, res.Telemetry)
	want := st["mc.queue"].Sum + st["dram.service"].Sum +
		st["mc.vpdrop"].Sum + vpLat*st["mc.vpdrop"].Count
	if cen.LatencyCycles != want {
		t.Fatalf("census latency %d != tracer queue+service %d", cen.LatencyCycles, want)
	}
	if wantReqs := st["mc.queue"].Count + st["mc.vpdrop"].Count; cen.Requests != wantReqs {
		t.Fatalf("census requests %d != tracer retirements %d", cen.Requests, wantReqs)
	}

	// The per-cause table must itself sum back to the total.
	var stalls uint64
	for _, s := range cen.Stalls {
		stalls += s.Cycles
	}
	if stalls != cen.LatencyCycles {
		t.Fatalf("stall table sums to %d, want %d", stalls, cen.LatencyCycles)
	}

	// Residency is a total classification: summed over banks and states it
	// covers every elapsed bank-cycle exactly once.
	nbanks := 0
	for _, ch := range cen.Channels {
		nbanks += len(ch.Banks)
	}
	var resid uint64
	for _, r := range cen.Residency {
		resid += r.Cycles
	}
	if resid != cen.BankCycles*uint64(nbanks)/uint64(len(cen.Channels)) {
		t.Fatalf("residency cycles %d != bank_cycles %d × %d banks / %d channels",
			resid, cen.BankCycles, nbanks, len(cen.Channels))
	}

	// Partition census: the three classes partition the elapsed partition
	// cycles, and the headline fraction is their skippable share.
	if cen.Advancing+cen.TimingWait+cen.Idle != cen.PartCycles {
		t.Fatalf("partition census %d+%d+%d != %d",
			cen.Advancing, cen.TimingWait, cen.Idle, cen.PartCycles)
	}
	if cen.PartCycles != res.Run.Mem.Cycles*uint64(len(cen.Channels)) {
		t.Fatalf("partition cycles %d != mem cycles %d × %d channels",
			cen.PartCycles, res.Run.Mem.Cycles, len(cen.Channels))
	}
	wantFrac := float64(cen.TimingWait+cen.Idle) / float64(cen.PartCycles)
	if math.Abs(cen.SkippableFrac-wantFrac) > 1e-12 {
		t.Fatalf("skippable_frac %g, want %g", cen.SkippableFrac, wantFrac)
	}

	// Gap histogram counts every maximal skippable run.
	var gaps uint64
	for _, b := range cen.GapHist {
		gaps += b.Count
	}
	if gaps != cen.GapCount {
		t.Fatalf("gap buckets sum to %d, want count %d", gaps, cen.GapCount)
	}

	// Channel detail must decompose the machine totals.
	var chReqs, chLat uint64
	for _, ch := range cen.Channels {
		chReqs += ch.Requests
		chLat += ch.LatencyCycles
	}
	if chReqs != cen.Requests || chLat != cen.LatencyCycles {
		t.Fatalf("channel rollup %d req / %d cycles, want %d / %d",
			chReqs, chLat, cen.Requests, cen.LatencyCycles)
	}
	return cen
}

// TestCensusSigmaInvariant is the tentpole property: across every scheme
// (baseline FR-FCFS, DMS, AMS, combined, static and dynamic) and with fault
// injection on or off, every cycle a request spends waiting is attributed to
// exactly one cause — the decomposition equals the independently measured
// queue+service latency with zero residual.
func TestCensusSigmaInvariant(t *testing.T) {
	schemes := []mc.Scheme{
		mc.Baseline, mc.StaticDMS, mc.DynDMS,
		mc.StaticAMS, mc.DynAMS, mc.StaticBoth, mc.DynBoth,
	}
	for _, scheme := range schemes {
		for _, faulty := range []bool{false, true} {
			name := scheme.Name()
			if faulty {
				name += "/fault"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				var vpLat uint64
				mut := []func(*sim.Config){func(cfg *sim.Config) {
					cfg.Obs = obs.Options{Census: true, Latency: true}
					vpLat = cfg.MC.VPLatencyCycles
				}}
				if faulty {
					mut = append(mut, withFault(1e-6, 1e-5, 7))
				}
				res := simulate(t, "SCP", scheme, mut...)
				cen := checkCensus(t, res, vpLat)
				if cen.Requests == 0 {
					t.Fatal("census saw no requests")
				}
				if scheme.AMS != mc.Off && res.Run.Mem.Dropped > 0 {
					found := false
					for _, s := range cen.Stalls {
						if s.Cause == "vp" {
							found = true
						}
					}
					if !found {
						t.Error("AMS drops occurred but no vp stall cycles recorded")
					}
				}
			})
		}
	}
}

// TestCensusHostPhases: the host-side profiler must attach sampled phase
// wall-times, with one probe sample per sampled memory tick.
func TestCensusHostPhases(t *testing.T) {
	res := simulate(t, "SCP", mc.DynBoth, func(cfg *sim.Config) {
		cfg.Obs = obs.Options{Census: true}
	})
	cen := res.Telemetry.Census
	if cen == nil || cen.Host == nil {
		t.Fatal("census host phases missing")
	}
	h := cen.Host
	if h.CoreTicks == 0 || h.MemTicks == 0 || h.ProbeTicks == 0 {
		t.Fatalf("no sampled ticks: %+v", h)
	}
	if h.MemTicks != h.ProbeTicks {
		t.Errorf("mem samples %d != probe samples %d", h.MemTicks, h.ProbeTicks)
	}
}

// TestCensusMetricsScrapeDuringRun scrapes the live registry concurrently
// with a census-enabled run; under -race this proves the publish/scrape
// boundary is atomic-only and the census families render.
func TestCensusMetricsScrapeDuringRun(t *testing.T) {
	reg := obs.NewRegistry()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var last []byte
	go func() {
		defer wg.Done()
		for {
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			if buf.Len() > 0 {
				last = buf.Bytes()
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	simulate(t, "SCP", mc.DynBoth, func(cfg *sim.Config) {
		cfg.Obs = obs.Options{Census: true, Metrics: reg}
	})
	close(done)
	wg.Wait()
	for _, fam := range []string{
		"lazysim_census_stall_cycles_total",
		"lazysim_census_bank_state_cycles_total",
		"lazysim_census_partition_cycles_total",
		"lazysim_census_skippable_frac",
	} {
		if !strings.Contains(string(last), fam) {
			t.Errorf("final scrape missing census family %s", fam)
		}
	}
}

// TestPublishMetricsAllocatesNothing: with the census, audit and quality
// logs on, a live-metrics publish sums the per-channel state into the
// gauges in place; it must not allocate, as a merged census per publish
// (228 KB each) did.
func TestPublishMetricsAllocatesNothing(t *testing.T) {
	g := prepare(t, "SCP", mc.DynBoth, func(cfg *sim.Config) {
		cfg.Obs = obs.Options{Census: true, AuditCapacity: 1024, Quality: true, Metrics: obs.NewRegistry()}
	})
	defer g.Close()
	for g.CoreCycle() < 20000 {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, func() { sim.PublishMetrics(g) }); n != 0 {
		t.Fatalf("a publish allocated %v times", n)
	}
}
