package core_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"lazydram/internal/core"
	"lazydram/internal/obs"
)

// TestStraddlingSeqLoadSplitsIntoTwoLines checks the contiguous lane-set
// form against the gather form of the same addresses: a load whose base is
// not line-aligned becomes two transactions with the lanes of each line, and
// delivers the same registers.
func TestStraddlingSeqLoadSplitsIntoTwoLines(t *testing.T) {
	const base, elem = 4096, 8 // lane 0 at 4128: lanes 0-23 in line 4096
	var seq, gather [core.WarpSize]uint32
	run := func(regs *[core.WarpSize]uint32, build func(ctx *core.Ctx) core.Op) int {
		prog := func(_, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
			if !yield(build(ctx)) {
				return
			}
			for l := range regs {
				regs[l] = ctx.U32(0, l)
			}
		}
		mem := newFakeMem(20)
		sm := core.NewSM(0, smConfig(), prog, []int{0})
		runSM(t, sm, mem, 10000)
		return mem.accepted
	}
	idx := make([]int, core.WarpSize)
	for l := range idx {
		idx[l] = elem + l
	}
	if n := run(&seq, func(ctx *core.Ctx) core.Op { return ctx.LoadSeq32(0, base, elem, core.WarpSize) }); n != 2 {
		t.Fatalf("straddling contiguous load made %d transactions, want 2", n)
	}
	if n := run(&gather, func(ctx *core.Ctx) core.Op { return ctx.LoadGather32(0, base, idx, core.WarpSize) }); n != 2 {
		t.Fatalf("straddling gather load made %d transactions, want 2", n)
	}
	if seq != gather {
		t.Fatalf("contiguous load delivered %x, gather form %x", seq, gather)
	}
	for l, v := range seq {
		if want := wordAt(base + 4*uint64(elem+l)); v != want {
			t.Fatalf("lane %d = %#x, want %#x", l, v, want)
		}
	}

	var ctx core.Ctx
	lines, masks := core.Coalesce(ctx.LoadSeq32(0, base, elem, core.WarpSize).Lanes)
	if want := []uint64{4096, 4224}; !slices.Equal(lines, want) {
		t.Fatalf("lines = %v, want %v", lines, want)
	}
	if want := []uint32{0x00FFFFFF, 0xFF000000}; !slices.Equal(masks, want) {
		t.Fatalf("lane masks = %#x, want %#x", masks, want)
	}
}

// TestSeqCoalescingMatchesGather compares the arithmetic line split of
// contiguous lane sets with the per-lane grouping of their gather form over
// random word-aligned bases and lane counts.
func TestSeqCoalescingMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ctx core.Ctx
	idx := make([]int, core.WarpSize)
	for i := 0; i < 2000; i++ {
		elem, n := rng.Intn(1024), rng.Intn(core.WarpSize+1)
		for l := range idx {
			idx[l] = elem + l
		}
		seqLines, seqMasks := core.Coalesce(ctx.LoadSeq32(0, 1<<16, elem, n).Lanes)
		gLines, gMasks := core.Coalesce(ctx.LoadGather32(1, 1<<16, idx, n).Lanes)
		if !slices.Equal(seqLines, gLines) || !slices.Equal(seqMasks, gMasks) {
			t.Fatalf("elem %d n %d: contiguous %v/%#x, gather %v/%#x",
				elem, n, seqLines, seqMasks, gLines, gMasks)
		}
	}
}

// TestDuplicateLaneStoreLastLaneWins scatters two lanes to one word: the
// later lane's value must be what the store transaction carries and what the
// write-through leaves in the resident L1 line.
func TestDuplicateLaneStoreLastLaneWins(t *testing.T) {
	const base = 4096
	var got uint32
	prog := func(_, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
		// Bring the line into the L1, scatter lanes 0 and 1 onto word
		// 5, then read it back from the L1.
		if !yield(ctx.LoadSeq32(0, base, 0, core.WarpSize)) ||
			!yield(ctx.StoreScatterF32(base, []int{5, 5, 6}, []float32{1, 2, 3}, 3)) ||
			!yield(ctx.LoadSeq32(1, base, 0, core.WarpSize)) {
			return
		}
		got = ctx.U32(1, 5)
	}
	mem := newFakeMem(20)
	sm := core.NewSM(0, smConfig(), prog, []int{0})
	runSM(t, sm, mem, 10000)
	want := math.Float32bits(2)
	if mem.stores[base+20] != want {
		t.Fatalf("store transaction carries %#x for the duplicated word, want %#x (last lane)", mem.stores[base+20], want)
	}
	if st := sm.L1Stats(); st.Misses != 1 {
		t.Fatalf("L1 misses = %d, want 1 (the reload must hit)", st.Misses)
	}
	if got != want {
		t.Fatalf("L1 holds %#x for the duplicated word, want %#x (last lane)", got, want)
	}
}

// phaseProg loads distinct nonzero data into every register in phase 0 and,
// in phase 1, records whether any register was nonzero before its first
// load, then does the same loads.
func phaseProg(dirty *bool) core.Program {
	return func(phase, warpID int, ctx *core.Ctx, yield func(core.Op) bool) {
		if phase == 1 && ctx.Regs != [core.MaxRegs][core.WarpSize]uint32{} {
			*dirty = true
		}
		for r := 0; r < core.MaxRegs; r++ {
			op := ctx.LoadSeq32(r, uint64(4096+warpID*4096+r*128), 0, core.WarpSize)
			if r%2 == 1 {
				op = ctx.Async(op)
			}
			if !yield(op) || !yield(ctx.Compute(3)) {
				return
			}
		}
		if !yield(ctx.Join()) {
			return
		}
		vals := make([]float32, core.WarpSize)
		yield(ctx.StoreSeqF32(1<<20, warpID*core.WarpSize, vals, core.WarpSize))
	}
}

func smDigest(sm *core.SM) uint64 {
	h := obs.NewHasher()
	sm.DigestInto(h)
	return h.Sum()
}

// TestReseedMatchesFreshSM runs a phase to completion, reseeds the SM with
// the next phase's warps, and compares it with a fresh SM for the same warp
// IDs, before and after running the phase: the reseed must leave the state
// NewSM builds (a cold L1 included), and a program must find its registers
// zeroed even though its record and coroutine are reused.
func TestReseedMatchesFreshSM(t *testing.T) {
	cfg := smConfig()
	cfg.MaxResidentWarps = 4
	var dirty bool
	phase1 := make([]int, 10)
	for i := range phase1 {
		phase1[i] = i
	}
	phase2 := []int{3, 5, 7, 9, 11, 13}
	prog := phaseProg(&dirty)
	reseeded := core.NewSM(0, cfg, prog, phase1)
	runSM(t, reseeded, newFakeMem(30), 100000)
	reseeded.Reseed(1, phase2)
	fresh := core.NewSM(0, cfg, prog, phase2)
	defer reseeded.Shutdown()
	defer fresh.Shutdown()
	if got, want := smDigest(reseeded), smDigest(fresh); got != want {
		t.Fatalf("reseeded SM digest %#x, fresh SM %#x", got, want)
	}
	if st := reseeded.L1Stats(); st != (fresh.L1Stats()) || reseeded.Insts() != 0 {
		t.Fatalf("reseeded SM keeps counters: L1 %+v, insts %d", st, reseeded.Insts())
	}
	endR := runSM(t, reseeded, newFakeMem(30), 100000)
	endF := runSM(t, fresh, newFakeMem(30), 100000)
	if endR != endF || smDigest(reseeded) != smDigest(fresh) || reseeded.Insts() != fresh.Insts() {
		t.Fatalf("phase 2 diverged: reseeded ends at %d with %d insts, fresh at %d with %d",
			endR, reseeded.Insts(), endF, fresh.Insts())
	}
	if dirty {
		t.Fatal("a phase-1 program saw nonzero registers before its first load")
	}
}
