package sim_test

import (
	"iter"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"lazydram/internal/approx"
	"lazydram/internal/core"
	"lazydram/internal/mc"
	"lazydram/internal/memimage"
	"lazydram/internal/sim"
	"lazydram/internal/workloads"
)

// dupStoreKernel scatters two lanes onto one word of line dupLine, first
// while the line is missing from the L2 (the store waits in an L2 MSHR that
// a load then joins), then while it is resident in the L2 and the L1; a
// second phase reloads it from the L2. Its program records what it reads.
type dupStoreKernel struct {
	viaFill, viaL1, viaL2 uint32
	zeroed                bool
}

const dupLine = 8192

func (k *dupStoreKernel) Name() string     { return "dupstore" }
func (k *dupStoreKernel) MemBytes() uint64 { return 1 << 16 }
func (k *dupStoreKernel) Phases() int      { return 2 }
func (k *dupStoreKernel) NumWarps(int) int { return 1 }
func (k *dupStoreKernel) Setup(im *memimage.Image, _ *rand.Rand) {
	for w := uint64(0); w < core.WarpSize; w++ {
		im.Write32(dupLine+4*w, 0xA0000000+uint32(w))
	}
}
func (k *dupStoreKernel) Annotations() *approx.Annotations { return nil }
func (k *dupStoreKernel) Output(im *memimage.Image) []float32 {
	out := make([]float32, core.WarpSize)
	for w := range out {
		out[w] = math.Float32frombits(im.Read32(dupLine + 4*uint64(w)))
	}
	return out
}

func (k *dupStoreKernel) Program(phase, _ int, ctx *core.Ctx) iter.Seq[core.Op] {
	return func(yield func(core.Op) bool) {
		if phase == 1 {
			k.zeroed = ctx.Regs == [core.MaxRegs][core.WarpSize]uint32{}
			if yield(ctx.LoadSeq32(0, dupLine, 0, core.WarpSize)) {
				k.viaL2 = ctx.U32(0, 3)
			}
			return
		}
		if !yield(ctx.StoreScatterF32(dupLine, []int{3, 3, 4}, []float32{1, 2, 5}, 3)) ||
			!yield(ctx.LoadSeq32(0, dupLine, 0, core.WarpSize)) {
			return
		}
		k.viaFill = ctx.U32(0, 3)
		if !yield(ctx.StoreScatterF32(dupLine, []int{3, 3}, []float32{7, 8}, 2)) ||
			!yield(ctx.LoadSeq32(1, dupLine, 0, core.WarpSize)) {
			return
		}
		k.viaL1 = ctx.U32(1, 3)
	}
}

// TestDuplicateLaneScatterLastLaneWins checks that of two lanes storing to
// one word the later one wins everywhere the store lands: through a pending
// L2 MSHR fill and in that fill's reply bytes, in the L1 by write-through,
// in the L2 on a hit, and in the flushed image.
func TestDuplicateLaneScatterLastLaneWins(t *testing.T) {
	k := &dupStoreKernel{}
	res, err := sim.Simulate(k, sim.DefaultConfig(), mc.Baseline, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.L2Misses != 2 || res.Run.L1Misses != 2 {
		t.Fatalf("L2 misses %d, L1 misses %d; want 2 and 2 (the first load joins the store's MSHR, the reload hits the L1)",
			res.Run.L2Misses, res.Run.L1Misses)
	}
	two, eight := math.Float32bits(2), math.Float32bits(8)
	for _, c := range []struct {
		where     string
		got, want uint32
	}{
		{"reply of the MSHR fill", k.viaFill, two},
		{"L1 after write-through", k.viaL1, eight},
		{"L2 hit reply in phase 2", k.viaL2, eight},
		{"flushed image", math.Float32bits(res.Output[3]), eight},
	} {
		if c.got != c.want {
			t.Errorf("%s: word 3 = %#x, want %#x (the last lane's value)", c.where, c.got, c.want)
		}
	}
	if !k.zeroed {
		t.Error("the phase-2 program found nonzero registers before its first load")
	}
	if golden := sim.RunFunctional(&dupStoreKernel{}, 1); golden[3] != res.Output[3] {
		t.Errorf("functional run leaves %v in word 3, timed run %v", golden[3], res.Output[3])
	}
}

// waitGoroutines waits for the goroutine count to fall back to base.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines left, %d before the run", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunsReleaseWarpCoroutines checks that no warp-slot coroutine and no
// worker-pool helper outlives a run: one abandoned halfway through a
// multi-phase kernel with Close, one completed by Run, one stepped to its
// end, where the last phase releases the parked coroutines and stops the
// pool before Finish, and one stopped by a Step error for exceeding
// MaxCoreCycles. Every run forces its SM phase onto the pool.
func TestRunsReleaseWarpCoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	prepare := func(app string, scheme mc.Scheme, cfg sim.Config) *sim.GPU {
		t.Helper()
		kern, err := workloads.New(app)
		if err != nil {
			t.Fatal(err)
		}
		g := sim.Prepare(kern, cfg, scheme, 1)
		sim.SetParallelSMs(g)
		return g
	}
	g := prepare("FWT", mc.DynDMS, sim.DefaultConfig())
	for g.CoreCycle() < 30000 {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if runtime.NumGoroutine() <= base {
		t.Fatal("no warp coroutine is alive halfway through FWT")
	}
	if sim.ParallelSMPhases(g) == 0 {
		t.Fatal("the forced SM phase never ran on the pool")
	}
	g.Close()
	g.Close()
	waitGoroutines(t, base, "Close halfway through FWT")

	if _, err := prepare("MVT", mc.Baseline, sim.DefaultConfig()).Run(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base, "Run")

	g = prepare("MVT", mc.Baseline, sim.DefaultConfig())
	for {
		done, err := g.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	waitGoroutines(t, base, "the last phase's end")
	g.Finish()

	cfg := sim.DefaultConfig()
	cfg.MaxCoreCycles = 5000
	g = prepare("MVT", mc.Baseline, cfg)
	for {
		done, err := g.Step()
		if done {
			t.Fatal("MVT finished within 5000 core cycles")
		}
		if err != nil {
			break
		}
	}
	waitGoroutines(t, base, "a Step error")
}
