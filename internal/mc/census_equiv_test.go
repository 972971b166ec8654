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
// every scheme and every policy so each stall cause and residency state
// exercises its span-invalidation rules.
func TestCensusSpanEquivalence(t *testing.T) {
	schemes := []Scheme{
		Baseline, StaticDMS, DynDMS, StaticAMS, DynAMS, StaticBoth, DynBoth,
	}
	for _, pol := range []Policy{FRFCFS, FCFS, FRFCFSClosedRow} {
		for _, scheme := range schemes {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", pol, scheme.Name(), seed)
				want, wantLat := runCensusTrace(t, pol, scheme, seed, true)
				got, gotLat := runCensusTrace(t, pol, scheme, seed, false)
				if !reflect.DeepEqual(wantLat, gotLat) {
					t.Fatalf("%s: span census perturbed scheduling: %d vs %d completions",
						name, len(gotLat), len(wantLat))
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: span census diverges from per-cycle reference", name)
					t.Errorf("  ref:  stalls=%v residency=%v", stallTotals(want), want.Residency)
					t.Fatalf("  span: stalls=%v residency=%v", stallTotals(got), got.Residency)
				}
			}
		}
	}
}

// runCensusTrace drives one controller with the deterministic traffic trace
// for seed and returns its census and completion latencies. ref selects the
// per-cycle reference census.
func runCensusTrace(t *testing.T, pol Policy, scheme Scheme, seed int64, ref bool) (*obs.Census, []uint64) {
	t.Helper()
	dcfg := dram.DefaultConfig()
	dcfg.NumBanks = 8
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
	if ref {
		ctrl.cenRef = ctrl.censusTickRef
	}
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
	// A tail of empty ticks exercises the no-head residency spans.
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

// censusTickRef is the cycle-by-cycle reference census: one classification
// and one charge per bank per cycle. It is the executable specification the
// span census is tested against, installed through the cenRef hook.
func (c *Controller) censusTickRef(now, delay uint64) {
	for b := range c.banks {
		// The same head view issue() schedules from: rows being drained by
		// an AMS row drop are skipped; their requests get their whole wait
		// attributed as queued at drop time.
		r := c.banks[b].head()
		_, cause, at, _ := c.blocker(r, b, now, delay)
		if r != nil {
			r.stall[cause]++
		}
		state := obs.BankIdle
		switch {
		case b == c.cenBank:
			state = obs.BankServing
		case r != nil && cause == obs.StallDMSHold:
			state = obs.BankDMSHeld
		case r != nil:
			state = obs.BankTimingWait
		case c.ch.OpenRow(b) != dram.NoRow:
			state = obs.BankOpenIdle
		case at > now:
			state = obs.BankPrecharging
		}
		c.cen.AddBankCycles(b, state, 1)
	}
	c.cen.AddCycles(1)
}

// stallTotals lists a census's per-cause stall cycles.
func stallTotals(c *obs.Census) []uint64 {
	out := make([]uint64, obs.NumStallCauses)
	for i := range out {
		out[i] = c.StallHist[i].Sum()
	}
	return out
}
