package mc_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lazydram/internal/mc"
	"lazydram/internal/obs"
)

// TestCensusExactDecomposition is the controller-level Σ-invariant property:
// under randomized traffic and every scheme, the census's per-cause cycle
// attribution must equal — exactly, with zero residual — the measured
// queue+service latency of every retired request, reconstructed here
// independently from the completion callbacks.
func TestCensusExactDecomposition(t *testing.T) {
	schemes := []mc.Scheme{
		mc.Baseline, mc.StaticDMS, mc.DynDMS,
		mc.StaticAMS, mc.DynAMS, mc.StaticBoth, mc.DynBoth,
	}
	f := func(seed int64, schemeIdx uint8) bool {
		scheme := schemes[int(schemeIdx)%len(schemes)]
		h := newHarness(t, scheme)
		cen := obs.NewCensus()
		h.ctrl.SetCensus(cen)
		rng := rand.New(rand.NewSource(seed))
		now := uint64(0)
		// Bursty arrivals: clustered same-row pushes mixed with scattered
		// traffic, some writes, some approximable reads (AMS drop fodder).
		for i := 0; i < 30; i++ {
			if !h.ctrl.Full() {
				h.push(rng.Intn(8), int64(rng.Intn(8)), uint64(rng.Intn(16)*128),
					rng.Intn(6) == 0, rng.Intn(2) == 0)
			}
			for k := rng.Intn(40); k >= 0; k-- {
				h.ctrl.Tick(now)
				now++
			}
		}
		for h.ctrl.Pending() > 0 {
			h.ctrl.Tick(now)
			now++
		}
		h.ctrl.CensusFinish(now)
		if err := cen.CheckInvariants(); err != nil {
			t.Logf("seed %d scheme %s: %v", seed, scheme.Name(), err)
			return false
		}
		// Independent reconstruction: every completion's ready time minus its
		// arrival is exactly the queue+service latency the census attributed
		// (AMS drops complete at drop+VPLatencyCycles, which the census books
		// as the vp service leg).
		var want uint64
		for _, d := range h.done {
			want += d.at - d.req.Arrival
		}
		if cen.LatencyCycles != want || cen.Attributed() != want {
			t.Logf("seed %d scheme %s: census %d/%d cycles, completions say %d",
				seed, scheme.Name(), cen.LatencyCycles, cen.Attributed(), want)
			return false
		}
		return cen.Requests == uint64(len(h.done))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
