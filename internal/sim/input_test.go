package sim_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"lazydram/internal/core"
	"lazydram/internal/mc"
	"lazydram/internal/memimage"
	"lazydram/internal/sim"
	"lazydram/internal/workloads"
)

// freshInput sets name up for seed the way the memo's own build does, on a
// new image, and runs it functionally on a fork of that image.
func freshInput(t *testing.T, name string, seed int64) (sim.Kernel, *memimage.Image, []float32) {
	t.Helper()
	k, err := workloads.New(name)
	if err != nil {
		t.Fatal(err)
	}
	im := memimage.New(k.MemBytes() + 4*memimage.LineSize)
	k.Setup(im, rand.New(rand.NewSource(seed)))
	run := im.Fork()
	ctx := new(core.Ctx)
	for ph := 0; ph < k.Phases(); ph++ {
		for w := 0; w < k.NumWarps(ph); w++ {
			*ctx = core.Ctx{}
			k.Program(ph, w, ctx, func(op core.Op) bool {
				sim.ApplyOp(run, ctx, op)
				return true
			})
		}
	}
	return k, im, k.Output(run)
}

// TestInputMemoMatchesFreshSetup checks, for every registry kernel at two
// seeds, that the memo's input is the one a fresh Setup builds: the forked
// image byte for byte, the post-Setup kernel value, and the functional
// output.
func TestInputMemoMatchesFreshSetup(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, seed := range []int64{1, 9173} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				t.Parallel()
				k, im, out := freshInput(t, name, seed)
				mk, _ := workloads.New(name)
				fork := sim.SetupInput(mk, seed)
				if fork.Size() != im.Size() {
					t.Fatalf("memo image has %d bytes, fresh %d", fork.Size(), im.Size())
				}
				line := make([]byte, memimage.LineSize)
				want := make([]byte, memimage.LineSize)
				for a := uint64(0); a < im.Size(); a += memimage.LineSize {
					fork.ReadLine(a, line)
					im.ReadLine(a, want)
					if !bytes.Equal(line, want) {
						t.Fatalf("memo image differs from a fresh Setup at line %#x", a)
					}
				}
				if !reflect.DeepEqual(mk, k) {
					t.Errorf("post-Setup kernel %+v, fresh Setup %+v", mk, k)
				}
				fk, _ := workloads.New(name)
				if got := sim.RunFunctional(fk, seed); !slices.Equal(got, out) {
					t.Error("RunFunctional output differs from a run on a fresh Setup")
				}
			})
		}
	}
}

// TestInputMemoHit checks that while one run holds an SCP input, a second
// Prepare of it forks that input instead of rebuilding it, also after a
// third run of it has been dropped and collected. NewGPU alone
// allocates about 1 MB (mostly L2 line storage), so the bound is on what
// Prepare allocates beyond a NewGPU of the same run: under a tenth of the
// 8 MB image, where a rebuild would allocate all of it.
func TestInputMemoHit(t *testing.T) {
	const image = 8 << 20
	cfg := sim.DefaultConfig()
	alloc := func(f func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	scp := func() sim.Kernel { k, _ := workloads.New("SCP"); return k }
	k := scp()
	held := sim.Prepare(k, cfg, mc.DynBoth, 1)
	defer held.Close()
	sim.Prepare(scp(), cfg, mc.DynBoth, 1).Close()
	deadline := time.Now().Add(10 * time.Second)
	for sim.InputLeases(scp(), 1) > 1 {
		if time.Now().After(deadline) {
			t.Fatal("a dropped run's lease was not finalized")
		}
		runtime.GC()
	}
	im := memimage.New(k.MemBytes())
	var g *sim.GPU
	machine := alloc(func() { g = sim.NewGPU(cfg, mc.DynBoth, k, im) })
	g.Close()
	prepare := alloc(func() { g = sim.Prepare(scp(), cfg, mc.DynBoth, 1) })
	g.Close()
	if prepare >= machine+image/10 {
		t.Fatalf("second Prepare of a held input allocated %d bytes, NewGPU %d: the input cost %d, want under %d",
			prepare, machine, prepare-machine, image/10)
	}
}

// TestConcurrentRunsShareInput runs one (app, seed) twice at once: the two
// runs must share one build of the input and equal a sequential run. A kernel that
// writes its own fields during a run (dupStoreKernel records what it reads)
// must keep one copy per run.
func TestConcurrentRunsShareInput(t *testing.T) {
	const seed = 4243 // a seed no other test of this package uses
	results := func(newKernel func() sim.Kernel) ([2]sim.Kernel, [2]*sim.Result, int) {
		var ks [2]sim.Kernel
		var rs [2]*sim.Result
		var errs [2]error
		_, before := sim.InputMemo()
		var wg sync.WaitGroup
		for i := range ks {
			ks[i] = newKernel()
			wg.Add(1)
			go func() {
				defer wg.Done()
				rs[i], errs[i] = sim.Simulate(ks[i], sim.DefaultConfig(), mc.DynBoth, seed)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		_, after := sim.InputMemo()
		return ks, rs, after - before
	}
	scp := func() sim.Kernel { k, _ := workloads.New("SCP"); return k }
	ks, rs, builds := results(scp)
	if builds > 1 { // 0 when an earlier -count iteration still holds the input
		t.Errorf("two concurrent runs of one input ran Setup %d times, want at most 1", builds)
	}
	seq, err := sim.Simulate(scp(), sim.DefaultConfig(), mc.DynBoth, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if !reflect.DeepEqual(r.Run, seq.Run) || !slices.Equal(r.Output, seq.Output) {
			t.Errorf("concurrent run %d differs from the sequential run", i)
		}
	}
	if ks[0] == ks[1] || !reflect.DeepEqual(ks[0], ks[1]) {
		t.Error("concurrent runs do not hold equal, distinct kernel values")
	}

	dks, drs, _ := results(func() sim.Kernel { return &dupStoreKernel{} })
	dseq := &dupStoreKernel{}
	if _, err := sim.Simulate(dseq, sim.DefaultConfig(), mc.DynBoth, seed); err != nil {
		t.Fatal(err)
	}
	for i, k := range dks {
		if *k.(*dupStoreKernel) != *dseq || !slices.Equal(drs[i].Output, drs[1-i].Output) {
			t.Errorf("concurrent dupstore run %d recorded %+v, sequential %+v", i, *k.(*dupStoreKernel), *dseq)
		}
	}
}

// TestInputMemoDoesNotGrowWithSeeds runs a small kernel under 1,000 seeds
// and drops every result: once the collector has run, the memo must hold
// only a handful of entries.
func TestInputMemoDoesNotGrowWithSeeds(t *testing.T) {
	for seed := int64(1); seed <= 1000; seed++ {
		sim.RunFunctional(&streamKernel{phases: 1, warps: 4}, seed)
	}
	const handful = 8
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		entries, _ := sim.InputMemo()
		if entries <= handful {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("memo holds %d inputs after 1,000 dropped runs, want at most %d", entries, handful)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
