// Package core models the GPU's streaming multiprocessors (SMs): resident
// warps executing per-warp instruction streams, a loose-round-robin dual
// issue scheduler, a load/store unit with memory coalescing, and a private
// write-through L1 data cache with merging MSHRs. Latency hiding emerges the
// way it does on real GPUs: each warp blocks on its own memory instruction
// while up to 48 resident warps keep the SM busy — the property the paper's
// delayed memory scheduling exploits.
package core

// WarpSize is the SIMT width (Table I: 32 threads per warp).
const WarpSize = 32

// MaxRegs is the number of vector register slots a warp program may address.
const MaxRegs = 8

// OpKind discriminates warp instructions.
type OpKind uint8

// Warp instruction kinds.
const (
	OpCompute OpKind = iota
	OpLoad
	OpStore
	// OpJoin blocks the warp until all of its in-flight asynchronous loads
	// have delivered (the "use" point of non-blocking GPU loads).
	OpJoin
)

// LaneSet carries the per-lane addresses and values of one memory
// instruction. Bit l of Active marks lane l as participating. Addresses are
// word-aligned and come in one of two forms: a contiguous set (Seq) records
// only lane 0's address in Base, lane l addressing Base + 4*l; any other
// shape lists every lane's address in Addrs. Read them through Addr.
//
// Addresses are image offsets held in 32 bits, which halves the lane sets
// a warp record carries; the builders panic on an address at or past
// 4 GiB (see addr32), far beyond any kernel image.
type LaneSet struct {
	Addrs  [WarpSize]uint32
	Vals   [WarpSize]uint32
	Active uint32
	Base   uint32
	Seq    bool
}

// Addr returns lane l's address.
func (ls *LaneSet) Addr(l int) uint64 {
	if ls.Seq {
		return uint64(ls.Base) + 4*uint64(l)
	}
	return uint64(ls.Addrs[l])
}

// Op is one warp instruction. Compute ops carry a latency in core cycles;
// memory ops reference the issuing warp's lane set (valid until the op
// completes, which is guaranteed because a warp blocks on its memory ops).
// The fields are ordered to keep an Op at 16 bytes.
type Op struct {
	Kind OpKind
	Dst  uint8 // destination vector register for loads
	// Async marks a non-blocking load: the warp continues once the load's
	// transactions are issued and only waits at the next OpJoin. The
	// destination register (and its lane set) must not be reused before
	// that join.
	Async  bool
	Cycles uint32
	Lanes  *LaneSet
}

// endsBatch reports whether the program must stop running ahead after op:
// a join releases async loads' registers, which no slot ownership tracks.
func (op Op) endsBatch() bool { return op.Kind == OpJoin }

// lineOf returns the 128-byte line address containing addr.
func lineOf(addr uint64) uint64 { return addr &^ 127 }
