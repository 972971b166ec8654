package core_test

import (
	"maps"
	"math"
	"slices"
	"testing"

	"lazydram/internal/cache"
	"lazydram/internal/core"
)

// Instruction kinds of a decoded fuzz program.
const (
	fzLoad = iota
	fzAsync
	fzJoin
	fzRead
	fzCompute
	fzStore
	fzKinds
)

// fuzzStep is one instruction of a decoded fuzz program. reg is a load's
// destination, or the register a read records or a store writes out, in
// [0, MaxRegs-1): slot MaxRegs-1 is the store lane set. arg selects a
// memory op's addresses (see fuzzLanes), a read's reader (see fuzzRead), or
// a compute's cycles.
type fuzzStep struct {
	kind, reg, arg int
}

// decodeFuzz turns data into a memory latency, a warp count and a program
// that keeps the rules of core.Program: no load into, or read of, a
// register an unjoined async load writes, and no store while an async load
// is in flight (its line may be the one stored). Each step takes 3 bytes.
func decodeFuzz(data []byte) (latency uint64, warps int, steps []fuzzStep) {
	if len(data) < 2 {
		return 1, 1, nil
	}
	latency, warps = 1+uint64(data[0]%64), 1+int(data[1]%4)
	var async uint32 // registers written by unjoined async loads
	for b := data[2:]; len(b) >= 3 && len(steps) < 64; b = b[3:] {
		s := fuzzStep{kind: int(b[0]) % fzKinds, reg: int(b[0]) / fzKinds % (core.MaxRegs - 1), arg: int(b[1]) | int(b[2])<<8}
		uses := s.kind == fzLoad || s.kind == fzAsync || s.kind == fzRead
		if s.kind == fzStore && async != 0 || uses && async>>s.reg&1 != 0 {
			steps = append(steps, fuzzStep{kind: fzJoin})
			async = 0
		}
		switch s.kind {
		case fzAsync:
			async |= 1 << s.reg
		case fzJoin:
			async = 0
		}
		steps = append(steps, s)
	}
	return latency, warps, steps
}

// fuzzLanes builds the load (store: false) or store of step s for warp w.
// Loads read a region every warp shares or the warp's own; stores write
// only its own, so warps never race. arg's bits: 0 the region, 1-4 the
// line, 5-6 the shape (contiguous, strided, gather/scatter), 7-11 the
// first element, stride or gather step, 12-15 the active lanes.
func fuzzLanes(ctx *core.Ctx, w int, s fuzzStep, store bool, vals []float32) core.Op {
	base := uint64(1 << 16)
	if store || s.arg&1 != 0 {
		base = 1<<20 + uint64(w)<<16
	}
	base += uint64(s.arg>>1&15) * cache.LineSize
	k := s.arg >> 7 & 31
	n := core.WarpSize
	if m := s.arg >> 12; m != 0 {
		n = 2 * m
	}
	idx := make([]int, core.WarpSize)
	for l := range idx {
		idx[l] = (l*k + k) % 40 // duplicates when k shares a factor with 40
	}
	switch shape := s.arg >> 5 & 3; {
	case shape == 1 && store:
		return ctx.StoreStrideF32(base, 0, 1+k%5, vals, n)
	case shape == 1:
		return ctx.LoadStride32(s.reg, base, 0, 1+k%5, n)
	case shape == 2 && store:
		return ctx.StoreScatterF32(base, idx, vals, n)
	case shape == 2:
		return ctx.LoadGather32(s.reg, base, idx, n)
	case store:
		return ctx.StoreSeqF32(base, k, vals, n)
	}
	return ctx.LoadSeq32(s.reg, base, k, n)
}

// fuzzRead returns register reg's lanes through the reader arg selects.
func fuzzRead(ctx *core.Ctx, reg, arg int) []uint32 {
	out := make([]uint32, core.WarpSize)
	switch arg % 3 {
	case 0:
		for l := range out {
			out[l] = math.Float32bits(ctx.F32(reg, l))
		}
	case 1:
		for l := range out {
			out[l] = ctx.U32(reg, l)
		}
	default:
		copy(out, ctx.Row(reg)[:])
	}
	return out
}

// fuzzProgram runs steps, appending what each read sees to trace[warp]. A
// store writes its register's lanes, read through its reader and xored with
// the step index so that stores of one register differ.
func fuzzProgram(steps []fuzzStep, trace [][]uint32) core.Program {
	return func(_, w int, ctx *core.Ctx, yield func(core.Op) bool) {
		for i, s := range steps {
			var op core.Op
			switch s.kind {
			case fzLoad:
				op = fuzzLanes(ctx, w, s, false, nil)
			case fzAsync:
				op = ctx.Async(fuzzLanes(ctx, w, s, false, nil))
			case fzJoin:
				op = ctx.Join()
			case fzRead:
				trace[w] = append(trace[w], fuzzRead(ctx, s.reg, s.arg)...)
				continue
			case fzCompute:
				op = ctx.Compute(1 + s.arg%4)
			case fzStore:
				vals := make([]float32, core.WarpSize)
				for l, v := range fuzzRead(ctx, s.reg, s.arg) {
					vals[l] = math.Float32frombits(v ^ uint32(i))
				}
				op = fuzzLanes(ctx, w, s, true, vals)
			}
			if !yield(op) {
				return
			}
		}
	}
}

// FuzzProgramMatchesFunctional runs a random rule-abiding program on an SM
// against fakeMem and, as the reference, applies the same program's ops in
// order directly to a fake memory, the way sim.RunFunctional does: every
// read must see the same values and the memories must end equal. The SM
// side runs ahead of its loads and stores (Ctx slot ownership), coalesces,
// merges in the L1 MSHRs, hits in the L1 and reuses warp slots. It runs
// twice per input, with roomy and with tight MSHRs, outbox and memory (so
// the LSU parks), each ticked on every cycle and as GPU.coreTick ticks it
// (runSMGated): both drivings must read the same values, store the same
// words and finish on the same cycle.
func FuzzProgramMatchesFunctional(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		latency, warps, steps := decodeFuzz(data)
		ids := make([]int, warps)
		for i := range ids {
			ids[i] = i
		}

		want := make([][]uint32, warps)
		ref := newFakeMem(0)
		prog := fuzzProgram(steps, want)
		for _, w := range ids {
			ctx := &core.Ctx{}
			prog(0, w, ctx, func(op core.Op) bool {
				for l := 0; l < core.WarpSize; l++ {
					if op.Kind == core.OpCompute || op.Kind == core.OpJoin || op.Lanes.Active>>l&1 == 0 {
						continue
					}
					if addr := op.Lanes.Addr(l); op.Kind == core.OpLoad {
						ctx.Regs[op.Dst][l] = ref.word(addr)
					} else {
						ref.stores[addr] = op.Lanes.Vals[l]
					}
				}
				return true
			})
		}

		for _, tight := range []bool{false, true} {
			cfg := smConfig()
			cfg.MaxResidentWarps = 2
			if tight {
				cfg.L1MSHREntries, cfg.L1MSHRTargets, cfg.OutboxDepth = 2, 2, 2
			}
			var cycles [2]uint64
			for i, run := range []func(*testing.T, *core.SM, *fakeMem, uint64) uint64{runSM, runSMGated} {
				got := make([][]uint32, warps)
				mem := newFakeMem(latency)
				if tight {
					mem.every = 3
				}
				sm := core.NewSM(0, cfg, fuzzProgram(steps, got), ids)
				defer sm.Shutdown() // releases the parked slot coroutines
				cycles[i] = run(t, sm, mem, 1<<20)
				for w := range want {
					if !slices.Equal(got[w], want[w]) {
						t.Fatalf("tight=%v run %d: warp %d read %x, want %x", tight, i, w, got[w], want[w])
					}
				}
				if !maps.Equal(mem.stores, ref.stores) {
					t.Fatalf("tight=%v run %d: memory holds %d stored words, want %d (or different values)",
						tight, i, len(mem.stores), len(ref.stores))
				}
			}
			if cycles[0] != cycles[1] {
				t.Fatalf("tight=%v: ticked every cycle the SM finished at %d, ticked on its horizon at %d",
					tight, cycles[0], cycles[1])
			}
		}
	})
}
