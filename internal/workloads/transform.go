package workloads

import (
	"math/rand"

	"lazydram/internal/approx"
	"lazydram/internal/core"
	"lazydram/internal/memimage"
	"lazydram/internal/sim"
)

func init() {
	register("SCP", func() sim.Kernel { return &scp{pairs: 2048, length: 512} })
	register("FWT", func() sim.Kernel { return &fwt{logN: 17} })
	register("SLA", func() sim.Kernel { return &sla{n: 1 << 19} })
}

// ---- SCP (CUDA SDK scalarProd): dot products of many vector pairs -------

type scp struct {
	pairs, length int
	a, b, out     uint64
	annot         *approx.Annotations
}

func (k *scp) Name() string { return "SCP" }
func (k *scp) MemBytes() uint64 {
	return uint64(2*k.pairs*k.length+k.pairs)*4 + 4096
}
func (k *scp) Phases() int      { return 1 }
func (k *scp) NumWarps(int) int { return k.pairs }

func (k *scp) Setup(im *memimage.Image, rng *rand.Rand) {
	n := k.pairs * k.length
	k.a = allocF32(im, n)
	k.b = allocF32(im, n)
	k.out = allocF32(im, k.pairs)
	initMixed(im, k.a, n, 0.5, rng)
	initMixed(im, k.b, n, 0.5, rng)
	k.annot = annotate(
		approx.Range{Base: k.a, Size: uint64(n) * 4},
		approx.Range{Base: k.b, Size: uint64(n) * 4},
	)
}

// Program: warp w accumulates the dot product of vector pair w. With
// thousands of concurrent streams and only 96 banks, the interleaving at the
// memory controller produces the low-RBL activations that give SCP its high
// Th_RBL sensitivity (Figure 11).
func (k *scp) Program(_, w int, ctx *core.Ctx, yield func(core.Op) bool) {
	base := w * k.length
	var acc [core.WarpSize]float32
	for c := 0; c < k.length; c += core.WarpSize {
		if !yield(ctx.Async(ctx.LoadSeq32(0, k.a, base+c, core.WarpSize))) ||
			!yield(ctx.Async(ctx.LoadSeq32(1, k.b, base+c, core.WarpSize))) ||
			!yield(ctx.Join()) {
			return
		}
		ra, rb := ctx.Row(0), ctx.Row(1)
		for l := 0; l < core.WarpSize; l++ {
			acc[l] += f32(ra[l]) * f32(rb[l])
		}
		if !yield(ctx.Compute(2)) {
			return
		}
	}
	sum := float32(0)
	for l := 0; l < core.WarpSize; l++ {
		sum += acc[l]
	}
	if !yield(ctx.Compute(10)) {
		return
	}
	yield(ctx.StoreSeqF32(k.out, w, []float32{sum}, 1))
}

func (k *scp) Output(im *memimage.Image) []float32 {
	return im.ReadF32Slice(k.out, k.pairs)
}

func (k *scp) Annotations() *approx.Annotations { return k.annot }

// ---- FWT (CUDA SDK fastWalshTransform) ----------------------------------

type fwt struct {
	logN  int
	data  uint64
	annot *approx.Annotations
}

func (k *fwt) n() int           { return 1 << k.logN }
func (k *fwt) Name() string     { return "FWT" }
func (k *fwt) MemBytes() uint64 { return uint64(k.n())*4 + 4096 }

// Phases: one per butterfly stage; stage s pairs elements stride 2^s apart
// and every stage depends on the previous one.
func (k *fwt) Phases() int      { return k.logN }
func (k *fwt) NumWarps(int) int { return k.n() / (2 * core.WarpSize) }

func (k *fwt) Setup(im *memimage.Image, rng *rand.Rand) {
	k.data = allocF32(im, k.n())
	initNoise(im, k.data, k.n(), -1, 1, rng)
	k.annot = annotate(approx.Range{Base: k.data, Size: uint64(k.n()) * 4})
}

// Program: warp w of stage processes pair indices p = w*32 .. w*32+31.
// For pair p with stride st: i = 2*(p &^ (st-1)) + (p & (st-1)), j = i + st.
// Small strides scatter lanes within lines; large strides produce two widely
// separated streams — the row-thrashing butterfly shape.
func (k *fwt) Program(stage, w int, ctx *core.Ctx, yield func(core.Op) bool) {
	st := 1 << stage
	var ii, jj [core.WarpSize]int
	for l := 0; l < core.WarpSize; l++ {
		p := w*core.WarpSize + l
		i := 2*(p&^(st-1)) + (p & (st - 1))
		ii[l] = i
		jj[l] = i + st
	}
	if !yield(ctx.Async(ctx.LoadGather32(0, k.data, ii[:], core.WarpSize))) ||
		!yield(ctx.Async(ctx.LoadGather32(1, k.data, jj[:], core.WarpSize))) ||
		!yield(ctx.Join()) {
		return
	}
	var sums, diffs [core.WarpSize]float32
	ra, rb := ctx.Row(0), ctx.Row(1)
	for l := 0; l < core.WarpSize; l++ {
		a, b := f32(ra[l]), f32(rb[l])
		sums[l] = a + b
		diffs[l] = a - b
	}
	if !yield(ctx.Compute(2)) ||
		!yield(ctx.StoreScatterF32(k.data, ii[:], sums[:], core.WarpSize)) {
		return
	}
	yield(ctx.StoreScatterF32(k.data, jj[:], diffs[:], core.WarpSize))
}

func (k *fwt) Output(im *memimage.Image) []float32 {
	// The transform is large; compare a strided sample of the result.
	return sampleF32(im, k.data, k.n(), 4096)
}

func (k *fwt) Annotations() *approx.Annotations { return k.annot }

// ---- SLA (CUDA SDK scanLargeArray): hierarchical prefix scan -------------

// slaChunk is the elements scanned per warp (each thread handles several
// elements via float4-style vector loads, as in the CUDA SDK kernel). The
// resulting 4-line bursts per join give SLA its streaming, relatively
// row-friendly access shape.
const slaChunk = 512

// sla mirrors the CUDA SDK scan: warp-sized blocks scan locally while their
// totals are reduced through a two-level auxiliary hierarchy, then offsets
// are propagated back down.
type sla struct {
	n          int
	data, out  uint64
	aux1, aux2 uint64
	annot      *approx.Annotations
}

func (k *sla) blocks() int      { return k.n / slaChunk }
func (k *sla) superBlocks() int { return ceilDiv(k.blocks(), core.WarpSize) }

func (k *sla) Name() string { return "SLA" }
func (k *sla) MemBytes() uint64 {
	return uint64(2*k.n+k.blocks()+k.superBlocks()*core.WarpSize)*4 + 4096
}

// Phases: block scan, super-block scan, top scan, offset add (two levels).
func (k *sla) Phases() int { return 5 }

func (k *sla) NumWarps(phase int) int {
	switch phase {
	case 0, 4:
		return k.blocks()
	case 1, 3:
		return k.superBlocks()
	default:
		return 1
	}
}

func (k *sla) Setup(im *memimage.Image, rng *rand.Rand) {
	k.data = allocF32(im, k.n)
	k.out = allocF32(im, k.n)
	k.aux1 = allocF32(im, k.blocks())
	k.aux2 = allocF32(im, k.superBlocks()*core.WarpSize)
	initNoise(im, k.data, k.n, 0, 1, rng)
	k.annot = annotate(approx.Range{Base: k.data, Size: uint64(k.n) * 4})
}

func (k *sla) Program(phase, w int, ctx *core.Ctx, yield func(core.Op) bool) {
	switch phase {
	case 0:
		// Block scan: warp w scans its slaChunk elements in 4-line bursts,
		// storing the inclusive prefix and the block total.
		k.blockScan(ctx, w, yield)
	case 1:
		// Super-block scan over aux1 (32 block totals per warp).
		scanChunk32(ctx, k.aux1, k.aux1, k.aux2, w, yield)
	case 2:
		// Top-level scan of aux2 by a single warp (small, serial).
		k.topScan(ctx, yield)
	case 3:
		// Propagate aux2 offsets into aux1.
		addChunkOffset(ctx, k.aux2, k.aux1, w, core.WarpSize, yield)
	default:
		// Propagate aux1 offsets into out: aux1[b] now holds the exclusive
		// offset of block b.
		addBlockOffset(ctx, k.aux1, k.out, w, yield)
	}
}

// blockScan scans slaChunk consecutive elements: per iteration it pulls four
// consecutive lines with async loads (the float4+unroll shape of the CUDA
// SDK kernel), computes the running prefix, and streams the result out.
func (k *sla) blockScan(ctx *core.Ctx, w int, yield func(core.Op) bool) {
	base := w * slaChunk
	running := float32(0)
	const burst = 4 * core.WarpSize
	var pref [core.WarpSize]float32
	for c := 0; c < slaChunk; c += burst {
		for r := 0; r < 4; r++ {
			if !yield(ctx.Async(ctx.LoadSeq32(r, k.data, base+c+r*core.WarpSize, core.WarpSize))) {
				return
			}
		}
		if !yield(ctx.Join()) {
			return
		}
		for r := 0; r < 4; r++ {
			row := ctx.Row(r)
			for l := 0; l < core.WarpSize; l++ {
				running += f32(row[l])
				pref[l] = running
			}
			if !yield(ctx.Compute(6)) ||
				!yield(ctx.StoreSeqF32(k.out, base+c+r*core.WarpSize, pref[:], core.WarpSize)) {
				return
			}
		}
	}
	yield(ctx.StoreSeqF32(k.aux1, w, []float32{running}, 1))
}

// scanChunk32 exclusively scans 32 consecutive elements of src into dst and
// writes the chunk total to sums[w].
func scanChunk32(ctx *core.Ctx, src, dst, sums uint64, w int, yield func(core.Op) bool) {
	if !yield(ctx.LoadSeq32(0, src, w*core.WarpSize, core.WarpSize)) {
		return
	}
	running := float32(0)
	var pref [core.WarpSize]float32
	row := ctx.Row(0)
	for l := 0; l < core.WarpSize; l++ {
		pref[l] = running
		running += f32(row[l])
	}
	if !yield(ctx.Compute(12)) || // log-step shared-memory scan
		!yield(ctx.StoreSeqF32(dst, w*core.WarpSize, pref[:], core.WarpSize)) {
		return
	}
	yield(ctx.StoreSeqF32(sums, w, []float32{running}, 1))
}

// topScan: one warp serially scans the top-level totals into exclusive
// offsets.
func (k *sla) topScan(ctx *core.Ctx, yield func(core.Op) bool) {
	n := k.superBlocks()
	running := float32(0)
	var excl [core.WarpSize]float32
	for c := 0; c < n; c += core.WarpSize {
		lanes := min(n-c, core.WarpSize)
		if !yield(ctx.LoadSeq32(0, k.aux2, c, lanes)) {
			return
		}
		row := ctx.Row(0)
		for l := 0; l < lanes; l++ {
			excl[l] = running
			running += f32(row[l])
		}
		if !yield(ctx.Compute(12)) ||
			!yield(ctx.StoreSeqF32(k.aux2, c, excl[:], lanes)) {
			return
		}
	}
}

// addChunkOffset adds offsets[w] to the 32-element chunk w of dst.
func addChunkOffset(ctx *core.Ctx, offsets, dst uint64, w, chunk int, yield func(core.Op) bool) {
	if !yield(ctx.Async(ctx.LoadSeq32(1, offsets, w, 1))) ||
		!yield(ctx.Async(ctx.LoadSeq32(0, dst, w*chunk, chunk))) ||
		!yield(ctx.Join()) {
		return
	}
	off, row := ctx.F32(1, 0), ctx.Row(0)
	var vals [core.WarpSize]float32
	for l := 0; l < chunk && l < core.WarpSize; l++ {
		vals[l] = f32(row[l]) + off
	}
	if !yield(ctx.Compute(1)) {
		return
	}
	yield(ctx.StoreSeqF32(dst, w*chunk, vals[:], chunk))
}

// addBlockOffset adds aux[w] to the whole slaChunk block w of dst, streaming
// in 4-line bursts like blockScan.
func addBlockOffset(ctx *core.Ctx, offsets, dst uint64, w int, yield func(core.Op) bool) {
	if !yield(ctx.LoadSeq32(4, offsets, w, 1)) {
		return
	}
	off := ctx.F32(4, 0)
	base := w * slaChunk
	const burst = 4 * core.WarpSize
	var vals [core.WarpSize]float32
	for c := 0; c < slaChunk; c += burst {
		for r := 0; r < 4; r++ {
			if !yield(ctx.Async(ctx.LoadSeq32(r, dst, base+c+r*core.WarpSize, core.WarpSize))) {
				return
			}
		}
		if !yield(ctx.Join()) {
			return
		}
		for r := 0; r < 4; r++ {
			row := ctx.Row(r)
			for l := 0; l < core.WarpSize; l++ {
				vals[l] = f32(row[l]) + off
			}
			if !yield(ctx.Compute(1)) ||
				!yield(ctx.StoreSeqF32(dst, base+c+r*core.WarpSize, vals[:], core.WarpSize)) {
				return
			}
		}
	}
}

func (k *sla) Output(im *memimage.Image) []float32 {
	// Sample the scanned array to keep comparisons cheap.
	return sampleF32(im, k.out, k.n, 4096)
}

func (k *sla) Annotations() *approx.Annotations { return k.annot }
