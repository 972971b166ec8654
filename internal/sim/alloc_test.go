package sim_test

import (
	"runtime"
	"testing"

	"lazydram/internal/mc"
	"lazydram/internal/sim"
	"lazydram/internal/workloads"
)

// TestStepLoopAllocationCeiling pins the heap allocations of the untraced
// step loop. jmein under Dyn-Both measures 3.7k mallocs per 1000 core cycles
// (down from 30.2k before the memory request path stopped allocating queue
// storage, MSHR entries and heap boxes, and from 10.5k before warp programs
// ran in one recycled coroutine per slot and SMs recycled their memory
// transactions); the ceiling sits at about 1.5x that, so a regression back
// toward per-request or per-warp allocation fails here instead of only
// showing up as a slower benchmark. The count is deterministic for a fixed
// seed, so the margin covers code drift, not noise.
func TestStepLoopAllocationCeiling(t *testing.T) {
	const ceiling = 5500 // mallocs per 1000 core cycles
	k, err := workloads.New("jmein")
	if err != nil {
		t.Fatal(err)
	}
	g := sim.Prepare(k, sim.DefaultConfig(), mc.DynBoth, 1)
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
	t.Logf("%.0f mallocs per 1000 core cycles over %d cycles", perK, cycles)
	if perK > ceiling {
		t.Fatalf("step loop allocates %.0f objects per 1000 core cycles, ceiling %d", perK, ceiling)
	}
}
