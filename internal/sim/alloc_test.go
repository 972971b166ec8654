package sim_test

import (
	"runtime"
	"testing"

	"lazydram/internal/mc"
	"lazydram/internal/sim"
	"lazydram/internal/workloads"
)

// TestStepLoopAllocationCeiling pins the heap allocations of the untraced
// step loop. The count is deterministic for a fixed seed, so each ceiling,
// about 1.5x what the tree measured when it was set, covers code drift, not
// noise; a regression back toward per-request, per-warp or per-phase
// allocation fails here instead of only showing up as a slower benchmark.
//
//   - jmein under Dyn-Both, single-phase: 2.2k mallocs per 1000 core cycles
//     (30.2k before the memory request path stopped allocating queue
//     storage, MSHR entries and heap boxes; 10.5k before warp programs ran
//     in one recycled coroutine per slot and SMs recycled their memory
//     transactions; 3.7k before the memory controller recycled its
//     requests).
//   - SCP under Dyn-Both, the AMS-heavy read path: 0.68k (1.6k before the
//     memory controller recycled its requests).
//   - FWT under Dyn-DMS, 17 dependent phases: 1.3k (12.3k while every
//     phase rebuilt its SMs, their slot coroutines, L1s and MSHRs; 2.9k
//     before the memory controller recycled its requests).
func TestStepLoopAllocationCeiling(t *testing.T) {
	for _, c := range []struct {
		app     string
		scheme  mc.Scheme
		ceiling float64 // mallocs per 1000 core cycles
	}{
		{"jmein", mc.DynBoth, 3300},
		{"SCP", mc.DynBoth, 1000},
		{"FWT", mc.DynDMS, 2000},
	} {
		k, err := workloads.New(c.app)
		if err != nil {
			t.Fatal(err)
		}
		g := sim.Prepare(k, sim.DefaultConfig(), c.scheme, 1)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for {
			done, err := g.Step()
			if err != nil {
				g.Close()
				t.Fatal(err)
			}
			if done {
				break
			}
		}
		runtime.ReadMemStats(&m1)
		cycles := g.CoreCycle()
		g.Finish()
		perK := float64(m1.Mallocs-m0.Mallocs) / (float64(cycles) / 1000)
		t.Logf("%s: %.0f mallocs per 1000 core cycles over %d cycles", c.app, perK, cycles)
		if perK > c.ceiling {
			t.Errorf("%s: step loop allocates %.0f objects per 1000 core cycles, ceiling %.0f", c.app, perK, c.ceiling)
		}
	}
}
