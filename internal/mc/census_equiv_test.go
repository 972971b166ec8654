package mc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lazydram/internal/dram"
	"lazydram/internal/obs"
	"lazydram/internal/stats"
)

// TestCensusSpanEquivalence pins the span-based census to the per-cycle
// reference implementation (censusTickRef): two controllers driven with
// byte-identical stimulus — one evaluating the classification every cycle,
// one caching it behind validity horizons and stamps — must produce the
// same Census down to every histogram bucket, and the same completion
// latencies (the census must never perturb scheduling). The sweep crosses
// every scheme, every policy, and refresh on/off so each stall cause and
// residency state exercises its span-invalidation rules.
func TestCensusSpanEquivalence(t *testing.T) {
	schemes := []Scheme{
		Baseline, StaticDMS, DynDMS, StaticAMS, DynAMS, StaticBoth, DynBoth,
	}
	timings := []struct {
		name   string
		timing dram.Timing
	}{
		{"base", dram.HynixGDDR5()},
		{"refresh", dram.HynixGDDR5WithRefresh()},
	}
	policies := []Policy{FRFCFS, FCFS, FRFCFSClosedRow}
	for _, tm := range timings {
		for _, pol := range policies {
			for _, scheme := range schemes {
				for seed := int64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("%s/%s/%s/seed%d", tm.name, pol, scheme.Name(), seed)
					want, wantLat := runCensusTrace(t, tm.timing, pol, scheme, seed, true)
					got, gotLat := runCensusTrace(t, tm.timing, pol, scheme, seed, false)
					if !reflect.DeepEqual(wantLat, gotLat) {
						t.Fatalf("%s: span census perturbed scheduling: %d vs %d completions",
							name, len(gotLat), len(wantLat))
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("%s: span census diverges from per-cycle reference", name)
						t.Errorf("  ref:  stalls=%v residency=%v", want.Stall, want.Residency)
						t.Fatalf("  span: stalls=%v residency=%v", got.Stall, got.Residency)
					}
				}
			}
		}
	}
}

// runCensusTrace drives one controller with the deterministic traffic trace
// for seed and returns its census and completion latencies. ref selects the
// per-cycle reference census.
func runCensusTrace(t *testing.T, timing dram.Timing, pol Policy, scheme Scheme, seed int64, ref bool) (*obs.Census, []uint64) {
	t.Helper()
	dcfg := dram.DefaultConfig()
	dcfg.NumBanks = 8
	dcfg.Timing = timing
	var st stats.Mem
	ch := dram.NewChannel(dcfg, &st)
	var lat []uint64
	cfg := DefaultConfig()
	cfg.Policy = pol
	cfg.Scheme = scheme
	cfg.ProfileWindow = 512
	ctrl := New(cfg, ch, &st, func(r *Request, approx bool, readyAt uint64) {
		lat = append(lat, readyAt-r.Arrival)
	}, nil)
	ctrl.cenRef = ref
	cen := obs.NewCensus()
	ctrl.SetCensus(cen)
	rng := rand.New(rand.NewSource(seed))
	now := uint64(0)
	// Bursty arrivals: clustered same-row pushes mixed with scattered
	// traffic, writes, and approximable reads, with long quiet stretches so
	// open-idle/precharging/idle spans open and expire.
	for i := 0; i < 80; i++ {
		if !ctrl.Full() {
			coord := dram.Coord{
				Bank: rng.Intn(dcfg.NumBanks),
				Row:  int64(rng.Intn(6)),
				Col:  uint64(rng.Intn(16) * 128),
			}
			write := rng.Intn(6) == 0
			approxr := rng.Intn(2) == 0
			ctrl.Push(uint64(i)*128, write, approxr, coord)
		}
		gap := rng.Intn(30)
		if rng.Intn(10) == 0 {
			gap += 400 // quiet stretch: drain fully, then sit idle
		}
		for k := gap; k >= 0; k-- {
			ctrl.Tick(now)
			now++
		}
	}
	for ctrl.Pending() > 0 {
		ctrl.Tick(now)
		now++
	}
	// A tail of empty ticks exercises the no-head residency spans (and, with
	// refresh enabled, whole refresh windows over an idle channel).
	for i := 0; i < 4000; i++ {
		ctrl.Tick(now)
		now++
	}
	ctrl.CensusFinish(now)
	if err := cen.CheckInvariants(); err != nil {
		t.Fatalf("seed %d ref=%v: %v", seed, ref, err)
	}
	return cen, lat
}
