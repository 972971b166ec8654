package core_test

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"lazydram/internal/cache"
	"lazydram/internal/core"
	"lazydram/internal/sim"
	"lazydram/internal/workloads"
)

// fakeMem services SM transactions instantly-ish: requests accepted by send
// are answered after a fixed latency with bytes derived from the address.
type fakeMem struct {
	latency  uint64
	inFlight []pendingReq
	accepted int
	stores   map[uint64]uint32 // word addr -> value
	// every, when above 1, makes f accept transactions only on the cycles
	// it divides: backpressure, as a busy request-network port.
	every uint64
}

type pendingReq struct {
	req *core.MemReq
	at  uint64
}

func newFakeMem(latency uint64) *fakeMem {
	return &fakeMem{latency: latency, stores: map[uint64]uint32{}}
}

// wordAt defines the fake memory's initial contents: word value = low 32
// bits of addr.
func wordAt(addr uint64) uint32 { return uint32(addr) }

// word returns the fake memory's word at addr: the last value stored there,
// else its initial contents.
func (f *fakeMem) word(addr uint64) uint32 {
	if v, ok := f.stores[addr]; ok {
		return v
	}
	return wordAt(addr)
}

// full reports whether f refuses transactions at cycle now (see every).
func (f *fakeMem) full(now uint64) bool { return f.every > 1 && now%f.every != 0 }

func (f *fakeMem) send(now uint64) func(*core.MemReq) bool {
	return func(r *core.MemReq) bool {
		if f.full(now) {
			return false
		}
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
			binary.LittleEndian.PutUint32(p.req.Data[off:], f.word(p.req.LineAddr+off))
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

// runSMGated drives the SM to completion as GPU.coreTick does, ticking it
// only on its horizon (which a reply resets) or when mem accepts its
// outbox head, and returns the cycles taken.
func runSMGated(t *testing.T, sm *core.SM, mem *fakeMem, limit uint64) uint64 {
	t.Helper()
	for now := uint64(0); now < limit; now++ {
		mem.deliver(sm, now)
		if sm.Next() <= now || sm.OutboxHead() != nil && !mem.full(now) {
			sm.Tick(now, mem.send(now))
		}
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
	prog := func(_, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
		if !yield(ctx.LoadSeq32(0, 4096, 0, core.WarpSize)) {
			return
		}
		for l := 0; l < core.WarpSize; l++ {
			got[l] = ctx.U32(0, l)
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
	prog := func(_, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
		yield(ctx.LoadSeq32(0, 4096, 0, core.WarpSize))
	}
	mem := newFakeMem(5)
	sm := core.NewSM(0, smConfig(), prog, []int{0})
	runSM(t, sm, mem, 10000)
	if mem.accepted != 1 {
		t.Fatalf("sequential 32-lane load produced %d transactions, want 1", mem.accepted)
	}
}

func TestCoalescingStridedIsManyTransactions(t *testing.T) {
	prog := func(_, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
		yield(ctx.LoadStride32(0, 4096, 0, 64, core.WarpSize)) // 256 B apart
	}
	mem := newFakeMem(5)
	sm := core.NewSM(0, smConfig(), prog, []int{0})
	runSM(t, sm, mem, 20000)
	if mem.accepted != core.WarpSize {
		t.Fatalf("strided load produced %d transactions, want %d", mem.accepted, core.WarpSize)
	}
}

func TestL1AbsorbsRepeatedLoads(t *testing.T) {
	prog := func(_, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
		for i := 0; i < 5; i++ {
			if !yield(ctx.LoadSeq32(0, 4096, 0, core.WarpSize)) {
				return
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
	prog := func(_, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
		yield(ctx.LoadSeq32(0, 4096, 0, core.WarpSize))
	}
	mem := newFakeMem(500) // long latency so both warps miss before the fill
	sm := core.NewSM(0, smConfig(), prog, []int{0, 1})
	runSM(t, sm, mem, 20000)
	if mem.accepted != 1 {
		t.Fatalf("%d transactions, want 1 (inter-warp merge)", mem.accepted)
	}
}

func TestStoresReachMemory(t *testing.T) {
	prog := func(_, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
		vals := make([]float32, core.WarpSize)
		for i := range vals {
			vals[i] = float32(i)
		}
		yield(ctx.StoreSeqF32(4096, 0, vals, core.WarpSize))
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
		prog := func(_, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
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
	prog := func(_, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
		if !yield(ctx.Async(ctx.LoadSeq32(0, 4096, 0, core.WarpSize))) {
			return
		}
		if !yield(ctx.Join()) {
			return
		}
		sawValue = ctx.U32(0, 0)
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
		prog := func(_, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
			for i := 0; i < 4; i++ {
				// Distinct lines per warp and iteration: all misses.
				addr := uint64(1<<16) + uint64(warpID)*4096 + uint64(i)*128
				if !yield(ctx.LoadSeq32(0, addr, 0, core.WarpSize)) {
					return
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
	prog := func(_, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
		ran[warpID] = true
		yield(ctx.Compute(3))
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
	prog := func(_, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
		if !yield(ctx.Compute(2)) {
			return
		}
		if !yield(ctx.LoadSeq32(0, 4096, 0, 4)) {
			return
		}
		vals := []float32{1, 2, 3, 4}
		yield(ctx.StoreSeqF32(8192, 0, vals, 4))
	}
	mem := newFakeMem(5)
	sm := core.NewSM(0, smConfig(), prog, []int{0})
	runSM(t, sm, mem, 10000)
	if got := sm.Insts(); got != 3 {
		t.Fatalf("Insts = %d, want 3", got)
	}
}

func TestShutdownReleasesWarps(t *testing.T) {
	prog := func(_, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
		for {
			if !yield(ctx.Compute(1)) {
				return
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
	prog := func(_, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
		if !yield(ctx.LoadSeq32(0, 4096, 0, 3)) { // 3 active lanes
			return
		}
		got = ctx.U32(0, 2)
	}
	mem := newFakeMem(5)
	sm := core.NewSM(0, smConfig(), prog, []int{0})
	runSM(t, sm, mem, 10000)
	if got != wordAt(4096+8) {
		t.Fatalf("lane 2 = %#x, want %#x", got, wordAt(4096+8))
	}
}

// clock is a test's core-cycle counter. A program detects that it
// was suspended and resumed by the clock moving across a call: the SM
// resumes it only from Tick.
type clock struct{ now uint64 }

// resumed runs f and reports whether the program was resumed inside it.
func (c *clock) resumed(f func()) bool {
	at := c.now
	f()
	return c.now != at
}

// run drives sm to completion against mem, advancing c.
func (c *clock) run(t *testing.T, sm *core.SM, mem *fakeMem) {
	t.Helper()
	for ; !sm.Done(); c.now++ {
		if c.now == 10000 {
			t.Fatal("SM did not finish")
		}
		mem.deliver(sm, c.now)
		sm.Tick(c.now, mem.send(c.now))
	}
}

// TestProgramResumesOncePerPendingRead checks a program is resumed once
// per read of a register slot a buffered op owns, not once per op or per
// blocking load: yielding compute, compute, load repeatedly and reading the
// loaded register after each load, it is suspended only at those reads, and
// they see the delivered values. The SM still issues one op per slot, so
// the instruction count and the cycle count are those the op sequence
// implies.
func TestProgramResumesOncePerPendingRead(t *testing.T) {
	const iters, latency = 10, 5
	var clk clock
	readResumes, yieldResumes, wrong := 0, 0, 0
	prog := func(_, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
		step := func(op core.Op) (ok bool) {
			if clk.resumed(func() { ok = yield(op) }) {
				yieldResumes++
			}
			return ok
		}
		for i := 0; i < iters; i++ {
			addr := 4096 + uint64(i)*cache.LineSize
			if !step(ctx.Compute(2)) || !step(ctx.Compute(3)) ||
				!step(ctx.LoadSeq32(0, addr, 0, core.WarpSize)) {
				return
			}
			var v uint32
			if clk.resumed(func() { v = ctx.U32(0, 1) }) {
				readResumes++
			}
			if v != wordAt(addr+4) {
				wrong++
			}
		}
	}
	cfg := smConfig()
	sm := core.NewSM(0, cfg, prog, []int{0})
	clk.run(t, sm, newFakeMem(latency))
	if readResumes != iters || yieldResumes != 0 {
		t.Fatalf("program resumed %d times at reads and %d at yields, want %d and 0 (once per pending read)",
			readResumes, yieldResumes, iters)
	}
	if wrong != 0 {
		t.Fatalf("%d reads saw a value other than the loaded one", wrong)
	}
	if got := sm.Insts(); got != 3*iters {
		t.Fatalf("Insts = %d, want %d", got, 3*iters)
	}
	// Per iteration: the two computes (2+3 cycles), one cycle for the LSU to
	// queue the line, one to hand it to the network, the memory latency,
	// and the L1 return latency. The program's end is seen at the issue
	// slot after the last load returned; now is one past that cycle.
	perIter := uint64(2+3+1+1+latency) + cfg.L1HitLatency
	if want := iters*perIter + 1; clk.now != want {
		t.Fatalf("took %d cycles, want %d", clk.now, want)
	}
}

// TestProgramRunsAheadOverDistinctLoads checks a program runs ahead over
// blocking loads into distinct registers: yielding four of them and then
// reading all four, it is resumed once per group, at the first read, and
// every read sees the delivered values.
func TestProgramRunsAheadOverDistinctLoads(t *testing.T) {
	const groups, regs = 3, 4
	var clk clock
	resumes, yieldResumes, wrong := 0, 0, 0
	prog := func(_, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
		addr := func(g, r int) uint64 { return uint64(4096 + (g*regs+r)*cache.LineSize) }
		for g := 0; g < groups; g++ {
			for r := 0; r < regs; r++ {
				var ok bool
				if clk.resumed(func() { ok = yield(ctx.LoadSeq32(r, addr(g, r), 0, core.WarpSize)) }) {
					yieldResumes++
				}
				if !ok {
					return
				}
			}
			for r := 0; r < regs; r++ {
				for l := 0; l < core.WarpSize; l++ {
					var v uint32
					if clk.resumed(func() { v = ctx.U32(r, l) }) {
						resumes++
					}
					if v != wordAt(addr(g, r)+4*uint64(l)) {
						wrong++
					}
				}
			}
		}
	}
	sm := core.NewSM(0, smConfig(), prog, []int{0})
	clk.run(t, sm, newFakeMem(20))
	if resumes != groups || yieldResumes != 0 {
		t.Fatalf("program resumed %d times at reads and %d at yields, want %d and 0 (once per group)",
			resumes, yieldResumes, groups)
	}
	if wrong != 0 {
		t.Fatalf("%d register reads saw a value other than the loaded one", wrong)
	}
}

// TestBackToBackStoresSync checks that building a store while an earlier
// one is still buffered waits for it, since both use the store lane set:
// building the second resumes the program, building the first does not,
// and each store reaches memory with its own addresses and values.
func TestBackToBackStoresSync(t *testing.T) {
	var clk clock
	var firstSynced, secondSynced bool
	vals := func(k float32) []float32 {
		v := make([]float32, core.WarpSize)
		for l := range v {
			v[l] = k + float32(l)
		}
		return v
	}
	prog := func(_, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
		var op core.Op
		firstSynced = clk.resumed(func() { op = ctx.StoreSeqF32(4096, 0, vals(100), core.WarpSize) })
		if !yield(op) {
			return
		}
		secondSynced = clk.resumed(func() { op = ctx.StoreSeqF32(8192, 0, vals(200), core.WarpSize) })
		yield(op)
	}
	mem := newFakeMem(5)
	sm := core.NewSM(0, smConfig(), prog, []int{0})
	clk.run(t, sm, mem)
	if firstSynced || !secondSynced {
		t.Fatalf("building the stores resumed the program: first %v, second %v; want false, true", firstSynced, secondSynced)
	}
	for l := 0; l < core.WarpSize; l++ {
		for _, s := range []struct {
			base uint64
			k    float32
		}{{4096, 100}, {8192, 200}} {
			if got, want := mem.stores[s.base+4*uint64(l)], math.Float32bits(s.k+float32(l)); got != want {
				t.Fatalf("word %d of the store at %d = %#x, want %#x", l, s.base, got, want)
			}
		}
	}
}

// syncProbe wraps a kernel and counts the ops after which a program's Ctx
// had a slot pending.
type syncProbe struct {
	sim.Kernel
	pending *int
}

func (k syncProbe) Program(phase, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
	k.Kernel.Program(phase, warpID, ctx, func(op core.Op) bool {
		if !yield(op) {
			return false
		}
		if core.Pending(ctx) {
			*k.pending++
		}
		return true
	})
}

// TestFunctionalCtxNeverSyncs checks a Ctx driven outside an SM, by
// sim.RunFunctional, never has a slot pending, so its readers never reach
// the sync hook (its warp is nil), and the run's output is that of the
// unwrapped kernel.
func TestFunctionalCtxNeverSyncs(t *testing.T) {
	k, err := workloads.New("GEMM")
	if err != nil {
		t.Fatal(err)
	}
	pending := 0
	got := sim.RunFunctional(syncProbe{k, &pending}, 1)
	if pending != 0 {
		t.Fatalf("%d ops left a slot pending outside an SM", pending)
	}
	if want := sim.RunFunctional(k, 1); !slices.Equal(got, want) {
		t.Fatal("wrapped kernel's output differs from the kernel's")
	}
}

// TestSlotReuseZeroesRegisters checks the next warp in a reused slot starts
// with zeroed registers, in the record its predecessor used.
func TestSlotReuseZeroesRegisters(t *testing.T) {
	var ctxs [2]*core.Ctx
	dirty := false
	prog := func(_, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
		ctxs[warpID] = ctx
		for r := range ctx.Regs {
			for _, v := range ctx.Regs[r] {
				dirty = dirty || v != 0
			}
		}
		yield(ctx.LoadSeq32(warpID, 4096, 0, core.WarpSize))
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
	prog := func(_, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
		ctxs[warpID] = ctx
		if warpID == 0 {
			yield(ctx.Async(ctx.LoadSeq32(0, 4096, 0, core.WarpSize)))
			return // ends without a join
		}
		// Outlast warp 0's load, then read register 0 once reading a
		// blocking load's register has resumed this program.
		if !yield(ctx.Compute(2*latency)) || !yield(ctx.LoadSeq32(1, 8192, 0, core.WarpSize)) {
			return
		}
		ctx.U32(1, 0)
		for l := range after {
			after[l] = ctx.U32(0, l)
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
	prog := func(_, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
		defer func() { returned = true }()
		for yields < 4*core.MaxBatch {
			yields++
			if !yield(ctx.Compute(1)) {
				return
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

// TestStalledLSUParksUntilReplyOrPop checks the parked LSU behind the SM's
// horizon. A load's second line fails, on a full MSHR or a full outbox;
// from then on the SM has nothing to do (Next() > now) and a Tick changes
// nothing, until a reply frees the MSHR entry or the outbox head leaves.
// The retry then succeeds on that same cycle.
func TestStalledLSUParksUntilReplyOrPop(t *testing.T) {
	const base = 4096
	for _, tc := range []struct {
		name   string
		mutate func(*core.Config)
		open   uint64 // the first cycle the network accepts a transaction
	}{
		{"mshr-full", func(c *core.Config) { c.L1MSHREntries = 1 }, 0},
		{"outbox-full", func(c *core.Config) { c.OutboxDepth = 1 }, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := func(_, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
				// Lanes 0-15 read the second half of one line, lanes
				// 16-31 the first half of the next.
				yield(ctx.LoadSeq32(0, base, 16, core.WarpSize))
			}
			cfg := smConfig()
			tc.mutate(&cfg)
			mem := newFakeMem(30)
			sm := core.NewSM(0, cfg, prog, []int{0})
			defer sm.Shutdown()
			const second = base + cache.LineSize
			var parked bool
			var before uint64
			for now := uint64(0); now < 1000; now++ {
				replies := len(mem.inFlight) > 0 && mem.inFlight[0].at <= now
				mem.deliver(sm, now)
				if replies && sm.Next() > now {
					t.Fatalf("cycle %d: a reply left the horizon at %d", now, sm.Next())
				}
				send := func(r *core.MemReq) bool { return now >= tc.open && mem.send(now)(r) }
				pops := sm.OutboxHead() != nil && now >= tc.open
				sm.Tick(now, send)
				if h := sm.OutboxHead(); h != nil && h.LineAddr == second {
					switch {
					case !parked:
						t.Fatalf("second line issued at cycle %d without parking", now)
					case !replies && !pops:
						t.Fatalf("parked retry succeeded at cycle %d with no reply or pop", now)
					case h.IssuedAt != now:
						t.Fatalf("second line issued at %d, want the wake cycle %d", h.IssuedAt, now)
					}
					return
				}
				if now < 2 {
					continue // install the load, issue its first line
				}
				if next := sm.Next(); next <= now {
					t.Fatalf("cycle %d: stalled SM has horizon %d", now, next)
				}
				if d := smDigest(sm); parked && d != before {
					t.Fatalf("cycle %d: a parked Tick changed the SM", now)
				} else {
					before = d
				}
				parked = true
			}
			t.Fatal("the parked retry never succeeded")
		})
	}
}

// TestWarpRecordSize pins a warp slot's record to the 3,456-byte
// allocation size class: 48 records per SM, 30 SMs, so each class step
// up costs the run megabytes of heap. The lane sets' 32-bit addresses keep
// it there.
func TestWarpRecordSize(t *testing.T) {
	if core.WarpRecordBytes > 3456 {
		t.Fatalf("warp record is %d bytes, past the 3456-byte size class", core.WarpRecordBytes)
	}
}
