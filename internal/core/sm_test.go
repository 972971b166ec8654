package core_test

import (
	"encoding/binary"
	"iter"
	"testing"

	"lazydram/internal/cache"
	"lazydram/internal/core"
)

// fakeMem services SM transactions instantly-ish: requests accepted by send
// are answered after a fixed latency with bytes derived from the address.
type fakeMem struct {
	latency  uint64
	inFlight []pendingReq
	accepted int
	stores   map[uint64]uint32 // word addr -> value
}

type pendingReq struct {
	req *core.MemReq
	at  uint64
}

func newFakeMem(latency uint64) *fakeMem {
	return &fakeMem{latency: latency, stores: map[uint64]uint32{}}
}

// wordAt defines the fake memory contents: word value = low 32 bits of addr.
func wordAt(addr uint64) uint32 { return uint32(addr) }

func (f *fakeMem) send(now uint64) func(*core.MemReq) bool {
	return func(r *core.MemReq) bool {
		f.accepted++
		if r.Load {
			f.inFlight = append(f.inFlight, pendingReq{req: r, at: now + f.latency})
		} else {
			for w := uint64(0); w < cache.LineSize/4; w++ {
				if r.Mask&(1<<w) != 0 {
					f.stores[r.LineAddr+4*w] = binary.LittleEndian.Uint32(r.Data[4*w:])
				}
			}
		}
		return true
	}
}

// deliver hands due replies to the SM.
func (f *fakeMem) deliver(sm *core.SM, now uint64) {
	rest := f.inFlight[:0]
	for _, p := range f.inFlight {
		if p.at > now {
			rest = append(rest, p)
			continue
		}
		for off := uint64(0); off < cache.LineSize; off += 4 {
			binary.LittleEndian.PutUint32(p.req.Data[off:], wordAt(p.req.LineAddr+off))
		}
		sm.HandleReply(p.req, now)
		sm.Release(p.req)
	}
	f.inFlight = rest
}

// runSM drives the SM to completion and returns the cycles taken.
func runSM(t *testing.T, sm *core.SM, mem *fakeMem, limit uint64) uint64 {
	t.Helper()
	for now := uint64(0); now < limit; now++ {
		mem.deliver(sm, now)
		sm.Tick(now, mem.send(now))
		if sm.Done() {
			return now
		}
	}
	t.Fatal("SM did not finish")
	return 0
}

func smConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxResidentWarps = 8
	return cfg
}

func TestLoadDeliversValues(t *testing.T) {
	var got [core.WarpSize]uint32
	prog := func(warpID int, ctx *core.Ctx) iter.Seq[core.Op] {
		return func(yield func(core.Op) bool) {
			if !yield(ctx.LoadSeq32(0, 4096, 0, core.WarpSize)) {
				return
			}
			for l := 0; l < core.WarpSize; l++ {
				got[l] = ctx.U32(0, l)
			}
		}
	}
	mem := newFakeMem(20)
	sm := core.NewSM(0, smConfig(), prog, []int{0})
	runSM(t, sm, mem, 10000)
	for l := 0; l < core.WarpSize; l++ {
		if want := wordAt(4096 + uint64(4*l)); got[l] != want {
			t.Fatalf("lane %d = %#x, want %#x", l, got[l], want)
		}
	}
}

func TestCoalescingSequentialIsOneTransaction(t *testing.T) {
	prog := func(warpID int, ctx *core.Ctx) iter.Seq[core.Op] {
		return func(yield func(core.Op) bool) {
			yield(ctx.LoadSeq32(0, 4096, 0, core.WarpSize))
		}
	}
	mem := newFakeMem(5)
	sm := core.NewSM(0, smConfig(), prog, []int{0})
	runSM(t, sm, mem, 10000)
	if mem.accepted != 1 {
		t.Fatalf("sequential 32-lane load produced %d transactions, want 1", mem.accepted)
	}
}

func TestCoalescingStridedIsManyTransactions(t *testing.T) {
	prog := func(warpID int, ctx *core.Ctx) iter.Seq[core.Op] {
		return func(yield func(core.Op) bool) {
			yield(ctx.LoadStride32(0, 4096, 0, 64, core.WarpSize)) // 256 B apart
		}
	}
	mem := newFakeMem(5)
	sm := core.NewSM(0, smConfig(), prog, []int{0})
	runSM(t, sm, mem, 20000)
	if mem.accepted != core.WarpSize {
		t.Fatalf("strided load produced %d transactions, want %d", mem.accepted, core.WarpSize)
	}
}

func TestL1AbsorbsRepeatedLoads(t *testing.T) {
	prog := func(warpID int, ctx *core.Ctx) iter.Seq[core.Op] {
		return func(yield func(core.Op) bool) {
			for i := 0; i < 5; i++ {
				if !yield(ctx.LoadSeq32(0, 4096, 0, core.WarpSize)) {
					return
				}
			}
		}
	}
	mem := newFakeMem(5)
	sm := core.NewSM(0, smConfig(), prog, []int{0})
	runSM(t, sm, mem, 20000)
	if mem.accepted != 1 {
		t.Fatalf("%d transactions for 5 repeated loads, want 1 (L1 hit path)", mem.accepted)
	}
	st := sm.L1Stats()
	if st.Misses != 1 || st.Accesses != 5 {
		t.Fatalf("L1 stats = %+v, want 5 accesses / 1 miss", st)
	}
}

func TestMSHRMergesSameLineAcrossWarps(t *testing.T) {
	prog := func(warpID int, ctx *core.Ctx) iter.Seq[core.Op] {
		return func(yield func(core.Op) bool) {
			yield(ctx.LoadSeq32(0, 4096, 0, core.WarpSize))
		}
	}
	mem := newFakeMem(500) // long latency so both warps miss before the fill
	sm := core.NewSM(0, smConfig(), prog, []int{0, 1})
	runSM(t, sm, mem, 20000)
	if mem.accepted != 1 {
		t.Fatalf("%d transactions, want 1 (inter-warp merge)", mem.accepted)
	}
}

func TestStoresReachMemory(t *testing.T) {
	prog := func(warpID int, ctx *core.Ctx) iter.Seq[core.Op] {
		return func(yield func(core.Op) bool) {
			vals := make([]float32, core.WarpSize)
			for i := range vals {
				vals[i] = float32(i)
			}
			yield(ctx.StoreSeqF32(4096, 0, vals, core.WarpSize))
		}
	}
	mem := newFakeMem(5)
	sm := core.NewSM(0, smConfig(), prog, []int{0})
	runSM(t, sm, mem, 10000)
	if len(mem.stores) != core.WarpSize {
		t.Fatalf("%d words stored, want %d", len(mem.stores), core.WarpSize)
	}
	if mem.stores[4096+4*7] != 0x40E00000 { // float32(7)
		t.Fatalf("stored word = %#x, want float bits of 7", mem.stores[4096+4*7])
	}
}

func TestAsyncLoadsOverlap(t *testing.T) {
	// Two dependent-free loads issued async must overlap their latencies:
	// the run finishes in roughly one latency, not two.
	mk := func(async bool) uint64 {
		prog := func(warpID int, ctx *core.Ctx) iter.Seq[core.Op] {
			return func(yield func(core.Op) bool) {
				a := ctx.LoadSeq32(0, 4096, 0, core.WarpSize)
				b := ctx.LoadSeq32(1, 1<<20, 0, core.WarpSize)
				if async {
					if !yield(ctx.Async(a)) || !yield(ctx.Async(b)) || !yield(ctx.Join()) {
						return
					}
				} else {
					if !yield(a) || !yield(b) {
						return
					}
				}
			}
		}
		mem := newFakeMem(400)
		sm := core.NewSM(0, smConfig(), prog, []int{0})
		return runSM(t, sm, mem, 30000)
	}
	sync := mk(false)
	async := mk(true)
	if async >= sync {
		t.Fatalf("async (%d cycles) not faster than sync (%d)", async, sync)
	}
	if async > 600 {
		t.Fatalf("async run took %d cycles; loads did not overlap a 400-cycle latency", async)
	}
}

func TestJoinBlocksUntilDelivery(t *testing.T) {
	var sawValue uint32
	prog := func(warpID int, ctx *core.Ctx) iter.Seq[core.Op] {
		return func(yield func(core.Op) bool) {
			if !yield(ctx.Async(ctx.LoadSeq32(0, 4096, 0, core.WarpSize))) {
				return
			}
			if !yield(ctx.Join()) {
				return
			}
			sawValue = ctx.U32(0, 0)
		}
	}
	mem := newFakeMem(300)
	sm := core.NewSM(0, smConfig(), prog, []int{0})
	runSM(t, sm, mem, 20000)
	if sawValue != wordAt(4096) {
		t.Fatalf("value after join = %#x, want %#x", sawValue, wordAt(4096))
	}
}

func TestLatencyHidingAcrossWarps(t *testing.T) {
	// One warp serializes on a 300-cycle memory; eight warps overlap their
	// misses and finish far sooner than 8x the single-warp time.
	mk := func(warps int) uint64 {
		prog := func(warpID int, ctx *core.Ctx) iter.Seq[core.Op] {
			return func(yield func(core.Op) bool) {
				for i := 0; i < 4; i++ {
					// Distinct lines per warp and iteration: all misses.
					addr := uint64(1<<16) + uint64(warpID)*4096 + uint64(i)*128
					if !yield(ctx.LoadSeq32(0, addr, 0, core.WarpSize)) {
						return
					}
				}
			}
		}
		ids := make([]int, warps)
		for i := range ids {
			ids[i] = i
		}
		mem := newFakeMem(300)
		sm := core.NewSM(0, smConfig(), prog, ids)
		return runSM(t, sm, mem, 100000)
	}
	one := mk(1)
	eight := mk(8)
	if eight > 2*one {
		t.Fatalf("8 warps took %d cycles vs %d for one; latency not hidden", eight, one)
	}
}

func TestWarpReplacementRunsFullGrid(t *testing.T) {
	ran := make([]bool, 30)
	prog := func(warpID int, ctx *core.Ctx) iter.Seq[core.Op] {
		return func(yield func(core.Op) bool) {
			ran[warpID] = true
			yield(ctx.Compute(3))
		}
	}
	ids := make([]int, 30)
	for i := range ids {
		ids[i] = i
	}
	cfg := smConfig() // 8 resident slots for 30 warps
	mem := newFakeMem(5)
	sm := core.NewSM(0, cfg, prog, ids)
	runSM(t, sm, mem, 10000)
	for i, ok := range ran {
		if !ok {
			t.Fatalf("warp %d never ran", i)
		}
	}
	if got := sm.Insts(); got != 30 {
		t.Fatalf("Insts = %d, want 30", got)
	}
}

func TestInstructionCounting(t *testing.T) {
	prog := func(warpID int, ctx *core.Ctx) iter.Seq[core.Op] {
		return func(yield func(core.Op) bool) {
			if !yield(ctx.Compute(2)) {
				return
			}
			if !yield(ctx.LoadSeq32(0, 4096, 0, 4)) {
				return
			}
			vals := []float32{1, 2, 3, 4}
			yield(ctx.StoreSeqF32(8192, 0, vals, 4))
		}
	}
	mem := newFakeMem(5)
	sm := core.NewSM(0, smConfig(), prog, []int{0})
	runSM(t, sm, mem, 10000)
	if got := sm.Insts(); got != 3 {
		t.Fatalf("Insts = %d, want 3", got)
	}
}

func TestShutdownReleasesWarps(t *testing.T) {
	prog := func(warpID int, ctx *core.Ctx) iter.Seq[core.Op] {
		return func(yield func(core.Op) bool) {
			for {
				if !yield(ctx.Compute(1)) {
					return
				}
			}
		}
	}
	sm := core.NewSM(0, smConfig(), prog, []int{0, 1})
	mem := newFakeMem(5)
	sm.Tick(0, mem.send(0))
	sm.Shutdown() // must not deadlock or leak coroutines
	if sm.Done() != true {
		// After shutdown all warps are finished; Done also needs empty
		// queues, which hold here.
		t.Fatal("SM not done after Shutdown")
	}
}

func TestPartialWarpMasksInactiveLanes(t *testing.T) {
	var got uint32 = 0xFFFFFFFF
	prog := func(warpID int, ctx *core.Ctx) iter.Seq[core.Op] {
		return func(yield func(core.Op) bool) {
			if !yield(ctx.LoadSeq32(0, 4096, 0, 3)) { // 3 active lanes
				return
			}
			got = ctx.U32(0, 2)
		}
	}
	mem := newFakeMem(5)
	sm := core.NewSM(0, smConfig(), prog, []int{0})
	runSM(t, sm, mem, 10000)
	if got != wordAt(4096+8) {
		t.Fatalf("lane 2 = %#x, want %#x", got, wordAt(4096+8))
	}
}

// TestProgramResumesOncePerBlockingLoad checks a program is resumed once per
// sync point, not once per op: yielding compute, compute, load repeatedly,
// it is suspended only at each blocking load. The program detects a
// resumption by the driver's clock moving across a yield; the SM still
// issues one op per slot, so the instruction count and the cycle count are
// those the op sequence implies.
func TestProgramResumesOncePerBlockingLoad(t *testing.T) {
	const iters, latency = 10, 5
	var now uint64
	resumes := 0
	prog := func(warpID int, ctx *core.Ctx) iter.Seq[core.Op] {
		return func(yield func(core.Op) bool) {
			step := func(op core.Op) bool {
				at := now
				ok := yield(op)
				if now != at {
					resumes++
				}
				return ok
			}
			for i := 0; i < iters; i++ {
				if !step(ctx.Compute(2)) || !step(ctx.Compute(3)) ||
					!step(ctx.LoadSeq32(0, 4096+uint64(i)*cache.LineSize, 0, core.WarpSize)) {
					return
				}
			}
		}
	}
	cfg := smConfig()
	sm := core.NewSM(0, cfg, prog, []int{0})
	mem := newFakeMem(latency)
	for ; !sm.Done(); now++ {
		if now == 10000 {
			t.Fatal("SM did not finish")
		}
		mem.deliver(sm, now)
		sm.Tick(now, mem.send(now))
	}
	if resumes != iters {
		t.Fatalf("program resumed %d times, want %d (once per blocking load)", resumes, iters)
	}
	if got := sm.Insts(); got != 3*iters {
		t.Fatalf("Insts = %d, want %d", got, 3*iters)
	}
	// Per iteration: the two computes (2+3 cycles), one cycle for the LSU to
	// queue the line, one to hand it to the network, the memory latency,
	// and the L1 return latency. The program's end is seen at the issue
	// slot after the last load returned; now is one past that cycle.
	perIter := uint64(2+3+1+1+latency) + cfg.L1HitLatency
	if want := iters*perIter + 1; now != want {
		t.Fatalf("took %d cycles, want %d", now, want)
	}
}

// TestSlotReuseZeroesRegisters checks the next warp in a reused slot starts
// with zeroed registers, in the record its predecessor used.
func TestSlotReuseZeroesRegisters(t *testing.T) {
	var ctxs [2]*core.Ctx
	dirty := false
	prog := func(warpID int, ctx *core.Ctx) iter.Seq[core.Op] {
		return func(yield func(core.Op) bool) {
			ctxs[warpID] = ctx
			for r := range ctx.Regs {
				for _, v := range ctx.Regs[r] {
					dirty = dirty || v != 0
				}
			}
			yield(ctx.LoadSeq32(warpID, 4096, 0, core.WarpSize))
		}
	}
	cfg := smConfig()
	cfg.MaxResidentWarps = 1
	sm := core.NewSM(0, cfg, prog, []int{0, 1})
	runSM(t, sm, newFakeMem(5), 10000)
	if ctxs[0] != ctxs[1] {
		t.Fatal("warp 1 did not reuse warp 0's record")
	}
	if dirty {
		t.Fatal("warp 1 started with warp 0's register values")
	}
}

// TestSlotWithAsyncInFlightNotReused checks a warp that ends with an
// un-joined async load in flight hands its slot to a fresh record: the late
// reply lands in the old warp's registers, not the next warp's.
func TestSlotWithAsyncInFlightNotReused(t *testing.T) {
	const latency = 200
	var ctxs [2]*core.Ctx
	var after [core.WarpSize]uint32
	prog := func(warpID int, ctx *core.Ctx) iter.Seq[core.Op] {
		return func(yield func(core.Op) bool) {
			ctxs[warpID] = ctx
			if warpID == 0 {
				yield(ctx.Async(ctx.LoadSeq32(0, 4096, 0, core.WarpSize)))
				return // ends without a join
			}
			// Outlast warp 0's load, then read register 0 after a blocking
			// load has resumed this program.
			if !yield(ctx.Compute(2*latency)) || !yield(ctx.LoadSeq32(1, 8192, 0, core.WarpSize)) {
				return
			}
			after = ctx.Regs[0]
		}
	}
	cfg := smConfig()
	cfg.MaxResidentWarps = 1
	sm := core.NewSM(0, cfg, prog, []int{0, 1})
	runSM(t, sm, newFakeMem(latency), 10000)
	if ctxs[0] == ctxs[1] {
		t.Fatal("warp 1 reused the record of a warp with a load in flight")
	}
	if want := wordAt(4096); ctxs[0].Regs[0][0] != want {
		t.Fatalf("late reply wrote %#x into warp 0, want %#x", ctxs[0].Regs[0][0], want)
	}
	for l, v := range after {
		if v != 0 {
			t.Fatalf("warp 1 register 0 lane %d = %#x after warp 0's late reply, want 0", l, v)
		}
	}
}

// TestComputeLoopCutAtBatchBound checks a program that never reaches a sync
// point buffers at most MaxBatch ops per resumption, and that Shutdown
// still ends it. The loop gives up after 4*MaxBatch ops so that a missing
// bound fails here instead of hanging the first Tick.
func TestComputeLoopCutAtBatchBound(t *testing.T) {
	yields, returned := 0, false
	prog := func(warpID int, ctx *core.Ctx) iter.Seq[core.Op] {
		return func(yield func(core.Op) bool) {
			defer func() { returned = true }()
			for yields < 4*core.MaxBatch {
				yields++
				if !yield(ctx.Compute(1)) {
					return
				}
			}
		}
	}
	sm := core.NewSM(0, smConfig(), prog, []int{0})
	mem := newFakeMem(5)
	sm.Tick(0, mem.send(0))
	if yields != core.MaxBatch {
		t.Fatalf("first resumption buffered %d ops, want the bound %d", yields, core.MaxBatch)
	}
	for now := uint64(1); now <= core.MaxBatch; now++ {
		sm.Tick(now, mem.send(now))
	}
	if yields != 2*core.MaxBatch {
		t.Fatalf("after %d issued ops the program yielded %d, want %d",
			core.MaxBatch+1, yields, 2*core.MaxBatch)
	}
	sm.Shutdown()
	if !returned || !sm.Done() {
		t.Fatalf("after Shutdown: program returned=%v, SM done=%v", returned, sm.Done())
	}
}
