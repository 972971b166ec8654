package core

import "math"

// Ctx is a warp's architectural state visible to its program: vector
// registers written by loads and a reusable lane-set buffer for building
// memory instructions. Under an SM the program runs ahead of its warp, and
// each yielded op the SM has not finished owns a slot; the register readers
// and the Load/Store methods wait for an owned slot, so they see a blocking
// load's values once it completed (see Program).
type Ctx struct {
	// w is the warp running this Ctx, nil outside an SM, where nothing is
	// ever pending; pending marks the slots owned by w's buffered ops. They
	// come first: the garbage collector scans an object only up to its last
	// pointer, so it skips the registers and lane sets.
	w       *warp
	pending [MaxRegs]bool
	Regs    [MaxRegs][WarpSize]uint32
	// lanes[r] is the lane-set buffer of register slot r; loads targeting r
	// build their addresses here. Stores use the slot chosen by the caller
	// via the store builders (slot MaxRegs-1 by default).
	lanes [MaxRegs]LaneSet
}

// need hands the buffered batch to the SM if one of its ops owns slot r,
// and returns once the SM has finished it.
func (c *Ctx) need(r int) {
	if c.pending[r] {
		c.w.sync()
	}
}

// Row returns register reg's lanes after waiting, once, for a buffered op
// that owns it; a lane loop reads the row instead of paying a check per
// lane in F32 or U32. The row is valid until the program's next op on reg:
// a later load into reg does not wait for the row's reader, so fetch the
// row again after it.
func (c *Ctx) Row(reg int) *[WarpSize]uint32 {
	c.need(reg)
	return &c.Regs[reg]
}

// F32 returns register reg, lane lane as float32.
func (c *Ctx) F32(reg, lane int) float32 {
	c.need(reg)
	return math.Float32frombits(c.Regs[reg][lane])
}

// U32 returns register reg, lane lane as uint32.
func (c *Ctx) U32(reg, lane int) uint32 {
	c.need(reg)
	return c.Regs[reg][lane]
}

// Compute returns a compute instruction occupying the warp for the given
// number of core cycles.
func (c *Ctx) Compute(cycles int) Op {
	if cycles < 1 {
		cycles = 1
	}
	return Op{Kind: OpCompute, Cycles: uint32(cycles)}
}

// addr32 returns a as a lane-set address, panicking if it does not fit in
// 32 bits: a bad index, or an image past 4 GiB.
func addr32(a uint64) uint32 {
	if a>>32 != 0 {
		panic("core: lane address beyond 4 GiB")
	}
	return uint32(a)
}

// fullMask activates lanes [0, n).
func fullMask(n int) uint32 {
	if n >= WarpSize {
		return ^uint32(0)
	}
	return (1 << uint(n)) - 1
}

// LoadSeq32 builds a fully coalesced load: lane l reads the 32-bit word at
// base + 4*(elem + l), for l in [0, n). The lane set stays in its contiguous
// form: it records lane 0's address, not 32 of them.
func (c *Ctx) LoadSeq32(dst int, base uint64, elem int, n int) Op {
	c.need(dst)
	ls := &c.lanes[dst]
	ls.Active = fullMask(n)
	ls.Base, ls.Seq = addr32(base+4*uint64(elem)), true
	return Op{Kind: OpLoad, Dst: uint8(dst), Lanes: ls}
}

// LoadStride32 builds a strided load: lane l reads the 32-bit word at
// base + 4*(elem + l*strideElems), for l in [0, n). Large strides defeat
// coalescing and produce up to n distinct line transactions — the classic
// row-thrashing access shape.
func (c *Ctx) LoadStride32(dst int, base uint64, elem, strideElems, n int) Op {
	c.need(dst)
	ls := &c.lanes[dst]
	ls.Active, ls.Seq = fullMask(n), false
	for l := 0; l < n && l < WarpSize; l++ {
		ls.Addrs[l] = addr32(base + 4*uint64(elem+l*strideElems))
	}
	return Op{Kind: OpLoad, Dst: uint8(dst), Lanes: ls}
}

// LoadGather32 builds an arbitrary gather: lane l reads base + 4*idx[l] for
// l in [0, n).
func (c *Ctx) LoadGather32(dst int, base uint64, idx []int, n int) Op {
	c.need(dst)
	ls := &c.lanes[dst]
	ls.Active, ls.Seq = fullMask(n), false
	for l := 0; l < n && l < WarpSize; l++ {
		ls.Addrs[l] = addr32(base + 4*uint64(idx[l]))
	}
	return Op{Kind: OpLoad, Dst: uint8(dst), Lanes: ls}
}

// StoreSeqF32 builds a fully coalesced store: lane l writes vals[l] to
// base + 4*(elem + l), for l in [0, n), in the contiguous lane-set form.
func (c *Ctx) StoreSeqF32(base uint64, elem int, vals []float32, n int) Op {
	c.need(MaxRegs - 1)
	ls := &c.lanes[MaxRegs-1]
	ls.Active = fullMask(n)
	ls.Base, ls.Seq = addr32(base+4*uint64(elem)), true
	for l := 0; l < n && l < WarpSize; l++ {
		ls.Vals[l] = math.Float32bits(vals[l])
	}
	return Op{Kind: OpStore, Lanes: ls}
}

// StoreStrideF32 builds a strided store: lane l writes vals[l] to
// base + 4*(elem + l*strideElems), for l in [0, n).
func (c *Ctx) StoreStrideF32(base uint64, elem, strideElems int, vals []float32, n int) Op {
	c.need(MaxRegs - 1)
	ls := &c.lanes[MaxRegs-1]
	ls.Active, ls.Seq = fullMask(n), false
	for l := 0; l < n && l < WarpSize; l++ {
		ls.Addrs[l] = addr32(base + 4*uint64(elem+l*strideElems))
		ls.Vals[l] = math.Float32bits(vals[l])
	}
	return Op{Kind: OpStore, Lanes: ls}
}

// StoreScatterF32 builds an arbitrary scatter: lane l writes vals[l] to
// base + 4*idx[l], for l in [0, n).
func (c *Ctx) StoreScatterF32(base uint64, idx []int, vals []float32, n int) Op {
	c.need(MaxRegs - 1)
	ls := &c.lanes[MaxRegs-1]
	ls.Active, ls.Seq = fullMask(n), false
	for l := 0; l < n && l < WarpSize; l++ {
		ls.Addrs[l] = addr32(base + 4*uint64(idx[l]))
		ls.Vals[l] = math.Float32bits(vals[l])
	}
	return Op{Kind: OpStore, Lanes: ls}
}

// Async marks a load as non-blocking: the warp proceeds after the load's
// transactions are issued and synchronizes at the next Join. The destination
// register must not be reloaded before that join.
func (c *Ctx) Async(op Op) Op {
	op.Async = true
	return op
}

// Join returns the instruction that waits for all in-flight async loads.
func (c *Ctx) Join() Op { return Op{Kind: OpJoin} }
