package sim_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"lazydram/internal/approx"
	"lazydram/internal/core"
	"lazydram/internal/mc"
	"lazydram/internal/memimage"
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
//   - FWT under Dyn-DMS, 17 dependent phases: 0.68k (1.3k while every warp
//     program returned a heap-allocated iterator and every phase rebuilt
//     its per-SM warp-ID lists; 12.3k while every phase rebuilt its SMs,
//     their slot coroutines, L1s and MSHRs; 2.9k before the memory
//     controller recycled its requests).
func TestStepLoopAllocationCeiling(t *testing.T) {
	for _, c := range []struct {
		app     string
		scheme  mc.Scheme
		ceiling float64 // mallocs per 1000 core cycles
	}{
		{"jmein", mc.DynBoth, 3300},
		{"SCP", mc.DynBoth, 1000},
		{"FWT", mc.DynDMS, 1000},
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

// streamKernel runs phases dependent phases of warps warps each: warp w
// loads 32 words of in, adds the phase, and stores them to the same words
// of out. Warps share streamChunks chunks (warp w uses chunk w mod
// streamChunks and all writers of a chunk store the same values), so the
// footprint stays in the L2 and in one image whatever the warp count: the
// allocations a run makes beyond it are the warps' own.
type streamKernel struct {
	phases, warps int
	in, out       uint64
}

const streamChunks = 64

func (k *streamKernel) Name() string     { return "stream" }
func (k *streamKernel) MemBytes() uint64 { return 2 * streamChunks * core.WarpSize * 4 }
func (k *streamKernel) Phases() int      { return k.phases }
func (k *streamKernel) NumWarps(int) int { return k.warps }
func (k *streamKernel) Setup(im *memimage.Image, _ *rand.Rand) {
	k.in = im.Alloc(streamChunks * core.WarpSize * 4)
	k.out = im.Alloc(streamChunks * core.WarpSize * 4)
}
func (k *streamKernel) Annotations() *approx.Annotations { return nil }
func (k *streamKernel) Output(im *memimage.Image) []float32 {
	return im.ReadF32Slice(k.out, streamChunks*core.WarpSize)
}

func (k *streamKernel) Program(phase, w int, ctx *core.Ctx, yield func(core.Op) bool) {
	elem := w % streamChunks * core.WarpSize
	if !yield(ctx.LoadSeq32(0, k.in, elem, core.WarpSize)) || !yield(ctx.Compute(4)) {
		return
	}
	var vals [core.WarpSize]float32
	row := ctx.Row(0)
	for l := range vals {
		vals[l] = math.Float32frombits(row[l]) + float32(phase)
	}
	yield(ctx.StoreSeqF32(k.out, elem, vals[:], core.WarpSize))
}

// TestFunctionalRunAllocsFlatInWarps checks a golden run allocates per run,
// not per warp: the image, one Ctx, one callback and the output, whether it
// runs 64 warps or 4096.
func TestFunctionalRunAllocsFlatInWarps(t *testing.T) {
	allocs := func(warps int) float64 {
		k := &streamKernel{phases: 2, warps: warps}
		return testing.AllocsPerRun(3, func() { sim.RunFunctional(k, 1) })
	}
	few, many := allocs(64), allocs(4096)
	t.Logf("functional run: %.0f allocations at 64 warps, %.0f at 4096", few, many)
	if many > few {
		t.Fatalf("functional run allocates %.0f objects at 4096 warps, %.0f at 64: it allocates per warp",
			many, few)
	}
}

// TestPhaseRelaunchAllocsFlatInWarps checks the timed machine launches
// warps without allocating: neither a warp's program nor a phase's
// dispatch to the SMs costs heap objects per warp. It runs the same
// kernel for 2 and for 8 phases of two warps per slot and bounds the
// extra allocations by a tenth of the 17,280 extra warps launched.
func TestPhaseRelaunchAllocsFlatInWarps(t *testing.T) {
	cfg := sim.DefaultConfig()
	warps := 2 * cfg.NumSMs * cfg.SM.MaxResidentWarps
	mallocs := func(phases int) uint64 {
		g := sim.Prepare(&streamKernel{phases: phases, warps: warps}, cfg, mc.Baseline, 1)
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
		g.Finish()
		return m1.Mallocs - m0.Mallocs
	}
	mallocs(2) // first-run costs outside the machine
	short, long := mallocs(2), mallocs(8)
	extraWarps := uint64(6 * warps)
	t.Logf("%d mallocs over 2 phases, %d over 8 (%d more warps)", short, long, extraWarps)
	if long > short+extraWarps/10 {
		t.Fatalf("6 more phases (%d warps) cost %d more allocations, bound %d",
			extraWarps, long-short, extraWarps/10)
	}
}
