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
		if want := uint64(4 * (10 + l*100)); op.Lanes.Addr(l) != want {
			t.Fatalf("lane %d addr = %d, want %d", l, op.Lanes.Addr(l), want)
		}
	}
}

func TestLoadGather32Addresses(t *testing.T) {
	var ctx core.Ctx
	idx := []int{9, 3, 7}
	op := ctx.LoadGather32(1, 64, idx, 3)
	for l, ix := range idx {
		if want := uint64(64 + 4*ix); op.Lanes.Addr(l) != want {
			t.Fatalf("lane %d addr = %d, want %d", l, op.Lanes.Addr(l), want)
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

// TestRow checks Row hands out register reg's own row: a write through
// the register shows in the row and the other rows are not it.
func TestRow(t *testing.T) {
	var ctx core.Ctx
	ctx.Regs[3][0] = math.Float32bits(2.5)
	ctx.Regs[3][31] = 7
	row := ctx.Row(3)
	if math.Float32frombits(row[0]) != 2.5 || row[31] != 7 {
		t.Fatalf("Row(3) = %v", row)
	}
	if row != &ctx.Regs[3] || ctx.Row(2) == row {
		t.Fatal("Row does not return the register's own row")
	}
}

// TestBuildersPanicBeyond32BitAddresses checks every lane-set builder
// refuses an address that does not fit the 32-bit lane set: an image past
// 4 GiB or a bad index fails loudly instead of wrapping.
func TestBuildersPanicBeyond32BitAddresses(t *testing.T) {
	const far = 1 << 32
	vals := make([]float32, core.WarpSize)
	for name, build := range map[string]func(*core.Ctx) core.Op{
		"LoadSeq32":       func(c *core.Ctx) core.Op { return c.LoadSeq32(0, far-8, 2, 1) },
		"LoadStride32":    func(c *core.Ctx) core.Op { return c.LoadStride32(0, far-8, 0, 1, 3) },
		"LoadGather32":    func(c *core.Ctx) core.Op { return c.LoadGather32(0, 0, []int{0, 1 << 30}, 2) },
		"StoreSeqF32":     func(c *core.Ctx) core.Op { return c.StoreSeqF32(far, 0, vals, 1) },
		"StoreStrideF32":  func(c *core.Ctx) core.Op { return c.StoreStrideF32(far-8, 0, 1, vals, 3) },
		"StoreScatterF32": func(c *core.Ctx) core.Op { return c.StoreScatterF32(0, []int{1 << 30}, vals, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s built an address beyond 4 GiB", name)
				}
			}()
			var ctx core.Ctx
			build(&ctx)
		}()
	}
	var ctx core.Ctx
	if op := ctx.LoadGather32(0, 0, []int{1<<30 - 1}, 1); op.Lanes.Addr(0) != far-4 {
		t.Fatalf("highest word address = %#x, want %#x", op.Lanes.Addr(0), uint64(far-4))
	}
}
