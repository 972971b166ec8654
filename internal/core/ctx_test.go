package core_test

import (
	"math"
	"testing"

	"lazydram/internal/core"
)

func TestComputeClampsToOneCycle(t *testing.T) {
	var ctx core.Ctx
	if op := ctx.Compute(0); op.Cycles != 1 {
		t.Fatalf("Compute(0).Cycles = %d, want 1", op.Cycles)
	}
	if op := ctx.Compute(7); op.Cycles != 7 || op.Kind != core.OpCompute {
		t.Fatalf("Compute(7) = %+v", op)
	}
}

func TestLoadSeq32Addresses(t *testing.T) {
	var ctx core.Ctx
	op := ctx.LoadSeq32(2, 1000, 5, 4)
	if op.Kind != core.OpLoad || op.Dst != 2 {
		t.Fatalf("op = %+v", op)
	}
	if op.Lanes.Active != 0b1111 {
		t.Fatalf("active mask = %b, want 4 lanes", op.Lanes.Active)
	}
	for l := 0; l < 4; l++ {
		if want := uint64(1000 + 4*(5+l)); op.Lanes.Addr(l) != want {
			t.Fatalf("lane %d addr = %d, want %d", l, op.Lanes.Addr(l), want)
		}
	}
}

func TestLoadStride32Addresses(t *testing.T) {
	var ctx core.Ctx
	op := ctx.LoadStride32(0, 0, 10, 100, 3)
	for l := 0; l < 3; l++ {
		if want := uint64(4 * (10 + l*100)); op.Lanes.Addrs[l] != want {
			t.Fatalf("lane %d addr = %d, want %d", l, op.Lanes.Addrs[l], want)
		}
	}
}

func TestLoadGather32Addresses(t *testing.T) {
	var ctx core.Ctx
	idx := []int{9, 3, 7}
	op := ctx.LoadGather32(1, 64, idx, 3)
	for l, ix := range idx {
		if want := uint64(64 + 4*ix); op.Lanes.Addrs[l] != want {
			t.Fatalf("lane %d addr = %d, want %d", l, op.Lanes.Addrs[l], want)
		}
	}
}

func TestStoreBuildersEncodeValues(t *testing.T) {
	var ctx core.Ctx
	vals := []float32{1.5, -2}
	op := ctx.StoreSeqF32(512, 0, vals, 2)
	if op.Kind != core.OpStore {
		t.Fatal("not a store")
	}
	if op.Lanes.Vals[0] != math.Float32bits(1.5) || op.Lanes.Vals[1] != math.Float32bits(-2) {
		t.Fatal("store values not encoded")
	}
	sc := ctx.StoreScatterF32(512, []int{4, 2}, vals, 2)
	if sc.Lanes.Addrs[0] != 512+16 || sc.Lanes.Addrs[1] != 512+8 {
		t.Fatal("scatter addresses wrong")
	}
	st := ctx.StoreStrideF32(0, 0, 8, vals, 2)
	if st.Lanes.Addrs[1] != 32 {
		t.Fatal("strided store address wrong")
	}
}

func TestFullWarpMask(t *testing.T) {
	var ctx core.Ctx
	op := ctx.LoadSeq32(0, 0, 0, core.WarpSize)
	if op.Lanes.Active != ^uint32(0) {
		t.Fatalf("full warp mask = %#x", op.Lanes.Active)
	}
}

func TestLoadsUseDistinctLaneBuffersPerRegister(t *testing.T) {
	var ctx core.Ctx
	a := ctx.LoadSeq32(0, 0, 0, 1)
	b := ctx.LoadSeq32(1, 4096, 0, 1)
	if a.Lanes == b.Lanes {
		t.Fatal("loads to different registers must not share a lane buffer")
	}
	if a.Lanes.Addr(0) != 0 || b.Lanes.Addr(0) != 4096 {
		t.Fatal("second load corrupted the first load's addresses")
	}
}

func TestAsyncWrapperAndJoin(t *testing.T) {
	var ctx core.Ctx
	op := ctx.Async(ctx.LoadSeq32(0, 0, 0, 1))
	if !op.Async {
		t.Fatal("Async did not mark the op")
	}
	j := ctx.Join()
	if j.Kind != core.OpJoin {
		t.Fatalf("Join kind = %v", j.Kind)
	}
}

func TestRegF32(t *testing.T) {
	var ctx core.Ctx
	ctx.Regs[3][0] = math.Float32bits(2.5)
	ctx.Regs[3][1] = math.Float32bits(-1)
	var buf [core.WarpSize]float32
	out := ctx.RegF32(3, &buf, 2)
	if out[0] != 2.5 || out[1] != -1 {
		t.Fatalf("RegF32 = %v", out[:2])
	}
}
