package workloads

import (
	"math/rand"

	"lazydram/internal/approx"
	"lazydram/internal/core"
	"lazydram/internal/memimage"
	"lazydram/internal/sim"
)

func init() {
	register("GEMM", func() sim.Kernel { return &gemm{n: 288} })
	register("2MM", func() sim.Kernel { return &twoMM{n: 160} })
	register("3MM", func() sim.Kernel { return &threeMM{n: 128} })
	register("MVT", func() sim.Kernel { return &mvt{n: 384} })
	register("ATAX", func() sim.Kernel { return &atax{n: 384} })
	register("BICG", func() sim.Kernel { return &bicg{n: 384} })
}

// matmulRows is how many B row segments matmulProgram loads, into registers
// 1..matmulRows, before it reads them: it runs ahead over those loads.
const matmulRows = 4

// matmulProgram emits the instruction stream of warp w of an n x n
// row-major matrix multiply C = alpha*A*B + beta*C: each warp produces 32
// consecutive elements of one C row, loading the A row in line-sized chunks
// and streaming the matching B row segments, each followed by its compute.
func matmulProgram(ctx *core.Ctx, n, w int, a, b, c uint64, alpha, beta float32, yield func(core.Op) bool) {
	stripes := n / core.WarpSize
	i := w / stripes
	j := (w % stripes) * core.WarpSize
	var acc [core.WarpSize]float32
	for k0 := 0; k0 < n; k0 += core.WarpSize {
		if !yield(ctx.LoadSeq32(0, a, i*n+k0, core.WarpSize)) {
			return
		}
		for kk := 0; kk < core.WarpSize; kk += matmulRows {
			for r := 1; r <= matmulRows; r++ {
				if !yield(ctx.LoadSeq32(r, b, (k0+kk+r-1)*n+j, core.WarpSize)) ||
					!yield(ctx.Compute(2)) {
					return
				}
			}
			for r := 1; r <= matmulRows; r++ {
				av, br := ctx.F32(0, kk+r-1), ctx.Row(r)
				for l := 0; l < core.WarpSize; l++ {
					acc[l] += av * f32(br[l])
				}
			}
		}
	}
	if !yield(ctx.LoadSeq32(2, c, i*n+j, core.WarpSize)) {
		return
	}
	var out [core.WarpSize]float32
	cr := ctx.Row(2)
	for l := range out {
		out[l] = alpha*acc[l] + beta*f32(cr[l])
	}
	yield(ctx.StoreSeqF32(c, i*n+j, out[:], core.WarpSize))
}

// rowDotProgram emits warp w computing out[w] = sum_j A[w,j]*x[j] (the
// coalesced matrix-vector product: lanes stride across the row and reduce).
func rowDotProgram(ctx *core.Ctx, n, w int, a, x, out uint64, addIn bool, yield func(core.Op) bool) {
	var acc [core.WarpSize]float32
	for j := 0; j < n; j += core.WarpSize {
		if !yield(ctx.Async(ctx.LoadSeq32(0, a, w*n+j, core.WarpSize))) ||
			!yield(ctx.Async(ctx.LoadSeq32(1, x, j, core.WarpSize))) ||
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
	if !yield(ctx.Compute(10)) { // lane-serial reduction
		return
	}
	if addIn {
		if !yield(ctx.LoadSeq32(2, out, w, 1)) {
			return
		}
		sum += ctx.F32(2, 0)
	}
	yield(ctx.StoreSeqF32(out, w, []float32{sum}, 1))
}

// colDotProgram emits warp w computing out[w] = sum_i A[i,w]*y[i] — the
// transposed product: lane l gathers A[(i+l)*n + w], a stride-n access that
// touches up to 32 distinct lines (and DRAM rows) per instruction. This is
// the row-thrashing access shape of MVT/ATAX/BICG.
func colDotProgram(ctx *core.Ctx, n, w int, a, y, out uint64, yield func(core.Op) bool) {
	var acc [core.WarpSize]float32
	for i := 0; i < n; i += core.WarpSize {
		if !yield(ctx.Async(ctx.LoadStride32(0, a, i*n+w, n, core.WarpSize))) ||
			!yield(ctx.Async(ctx.LoadSeq32(1, y, i, core.WarpSize))) ||
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
	yield(ctx.StoreSeqF32(out, w, []float32{sum}, 1))
}

// ---- GEMM (Polybench): C = alpha*A*B + beta*C --------------------------

type gemm struct {
	n       int
	a, b, c uint64
	annot   *approx.Annotations
}

func (k *gemm) Name() string     { return "GEMM" }
func (k *gemm) MemBytes() uint64 { return uint64(3*k.n*k.n)*4 + 4096 }
func (k *gemm) Phases() int      { return 1 }
func (k *gemm) NumWarps(int) int { return k.n * k.n / core.WarpSize }

func (k *gemm) Setup(im *memimage.Image, rng *rand.Rand) {
	n2 := k.n * k.n
	k.a = allocF32(im, n2)
	k.b = allocF32(im, n2)
	k.c = allocF32(im, n2)
	// Noise inputs: products of uncorrelated values amplify prediction
	// error, giving GEMM its low error tolerance (Table II).
	initNoise(im, k.a, n2, -1, 1, rng)
	initNoise(im, k.b, n2, -1, 1, rng)
	initNoise(im, k.c, n2, -1, 1, rng)
	k.annot = annotate(
		approx.Range{Base: k.a, Size: uint64(n2) * 4},
		approx.Range{Base: k.b, Size: uint64(n2) * 4},
	)
}

func (k *gemm) Program(_, w int, ctx *core.Ctx, yield func(core.Op) bool) {
	matmulProgram(ctx, k.n, w, k.a, k.b, k.c, 1.5, 0.8, yield)
}

func (k *gemm) Output(im *memimage.Image) []float32 {
	return im.ReadF32Slice(k.c, k.n*k.n)
}

func (k *gemm) Annotations() *approx.Annotations { return k.annot }

// ---- 2MM (Polybench): D = A*B; E = D*C ---------------------------------

type twoMM struct {
	n             int
	a, b, c, d, e uint64
	annot         *approx.Annotations
}

func (k *twoMM) Name() string     { return "2MM" }
func (k *twoMM) MemBytes() uint64 { return uint64(5*k.n*k.n)*4 + 4096 }
func (k *twoMM) Phases() int      { return 2 }
func (k *twoMM) NumWarps(int) int { return k.n * k.n / core.WarpSize }

func (k *twoMM) Setup(im *memimage.Image, rng *rand.Rand) {
	n2 := k.n * k.n
	k.a = allocF32(im, n2)
	k.b = allocF32(im, n2)
	k.c = allocF32(im, n2)
	k.d = allocF32(im, n2)
	k.e = allocF32(im, n2)
	initNoise(im, k.a, n2, -1, 1, rng)
	initNoise(im, k.b, n2, -1, 1, rng)
	initNoise(im, k.c, n2, -1, 1, rng)
	k.annot = annotate(
		approx.Range{Base: k.a, Size: uint64(n2) * 4},
		approx.Range{Base: k.b, Size: uint64(n2) * 4},
		approx.Range{Base: k.c, Size: uint64(n2) * 4},
	)
}

func (k *twoMM) Program(phase, w int, ctx *core.Ctx, yield func(core.Op) bool) {
	if phase == 0 {
		matmulProgram(ctx, k.n, w, k.a, k.b, k.d, 1, 0, yield)
	} else {
		matmulProgram(ctx, k.n, w, k.d, k.c, k.e, 1, 0, yield)
	}
}

func (k *twoMM) Output(im *memimage.Image) []float32 {
	return im.ReadF32Slice(k.e, k.n*k.n)
}

func (k *twoMM) Annotations() *approx.Annotations { return k.annot }

// ---- 3MM (Polybench): E = A*B; F = C*D; G = E*F -------------------------

type threeMM struct {
	n                   int
	a, b, c, d, e, f, g uint64
	annot               *approx.Annotations
}

func (k *threeMM) Name() string     { return "3MM" }
func (k *threeMM) MemBytes() uint64 { return uint64(7*k.n*k.n)*4 + 4096 }
func (k *threeMM) Phases() int      { return 3 }
func (k *threeMM) NumWarps(int) int { return k.n * k.n / core.WarpSize }

func (k *threeMM) Setup(im *memimage.Image, rng *rand.Rand) {
	n2 := k.n * k.n
	k.a = allocF32(im, n2)
	k.b = allocF32(im, n2)
	k.c = allocF32(im, n2)
	k.d = allocF32(im, n2)
	k.e = allocF32(im, n2)
	k.f = allocF32(im, n2)
	k.g = allocF32(im, n2)
	// Smooth inputs keep products correlated with their neighbourhood,
	// giving 3MM its high error tolerance (Table II).
	initSmooth(im, k.a, n2, rng)
	initSmooth(im, k.b, n2, rng)
	initSmooth(im, k.c, n2, rng)
	initSmooth(im, k.d, n2, rng)
	k.annot = annotate(
		approx.Range{Base: k.a, Size: uint64(n2) * 4},
		approx.Range{Base: k.b, Size: uint64(n2) * 4},
		approx.Range{Base: k.c, Size: uint64(n2) * 4},
		approx.Range{Base: k.d, Size: uint64(n2) * 4},
	)
}

func (k *threeMM) Program(phase, w int, ctx *core.Ctx, yield func(core.Op) bool) {
	switch phase {
	case 0:
		matmulProgram(ctx, k.n, w, k.a, k.b, k.e, 1, 0, yield)
	case 1:
		matmulProgram(ctx, k.n, w, k.c, k.d, k.f, 1, 0, yield)
	default:
		matmulProgram(ctx, k.n, w, k.e, k.f, k.g, 1, 0, yield)
	}
}

func (k *threeMM) Output(im *memimage.Image) []float32 {
	return im.ReadF32Slice(k.g, k.n*k.n)
}

func (k *threeMM) Annotations() *approx.Annotations { return k.annot }

// ---- MVT (Polybench): x1 = x1 + A*y1; x2 = x2 + A^T*y2 ------------------

type mvt struct {
	n                 int
	a, y1, y2, x1, x2 uint64
	annot             *approx.Annotations
}

func (k *mvt) Name() string     { return "MVT" }
func (k *mvt) MemBytes() uint64 { return uint64(k.n*k.n+4*k.n)*4 + 4096 }
func (k *mvt) Phases() int      { return 2 }
func (k *mvt) NumWarps(int) int { return k.n }

func (k *mvt) Setup(im *memimage.Image, rng *rand.Rand) {
	n2 := k.n * k.n
	k.a = allocF32(im, n2)
	k.y1 = allocF32(im, k.n)
	k.y2 = allocF32(im, k.n)
	k.x1 = allocF32(im, k.n)
	k.x2 = allocF32(im, k.n)
	initSmooth(im, k.a, n2, rng)
	initSmooth(im, k.y1, k.n, rng)
	initSmooth(im, k.y2, k.n, rng)
	initSmooth(im, k.x1, k.n, rng)
	initSmooth(im, k.x2, k.n, rng)
	k.annot = annotate(approx.Range{Base: k.a, Size: uint64(n2) * 4})
}

func (k *mvt) Program(phase, w int, ctx *core.Ctx, yield func(core.Op) bool) {
	if phase == 0 {
		rowDotProgram(ctx, k.n, w, k.a, k.y1, k.x1, true, yield)
	} else {
		colDotProgram(ctx, k.n, w, k.a, k.y2, k.x2, yield)
	}
}

func (k *mvt) Output(im *memimage.Image) []float32 {
	out := im.ReadF32Slice(k.x1, k.n)
	return append(out, im.ReadF32Slice(k.x2, k.n)...)
}

func (k *mvt) Annotations() *approx.Annotations { return k.annot }

// ---- ATAX (Polybench): y = A^T * (A * x) --------------------------------

type atax struct {
	n            int
	a, x, tmp, y uint64
	annot        *approx.Annotations
}

func (k *atax) Name() string     { return "ATAX" }
func (k *atax) MemBytes() uint64 { return uint64(k.n*k.n+3*k.n)*4 + 4096 }
func (k *atax) Phases() int      { return 2 }
func (k *atax) NumWarps(int) int { return k.n }

func (k *atax) Setup(im *memimage.Image, rng *rand.Rand) {
	n2 := k.n * k.n
	k.a = allocF32(im, n2)
	k.x = allocF32(im, k.n)
	k.tmp = allocF32(im, k.n)
	k.y = allocF32(im, k.n)
	initNoise(im, k.a, n2, -1, 1, rng)
	initNoise(im, k.x, k.n, -1, 1, rng)
	k.annot = annotate(approx.Range{Base: k.a, Size: uint64(n2) * 4})
}

func (k *atax) Program(phase, w int, ctx *core.Ctx, yield func(core.Op) bool) {
	if phase == 0 {
		rowDotProgram(ctx, k.n, w, k.a, k.x, k.tmp, false, yield)
	} else {
		colDotProgram(ctx, k.n, w, k.a, k.tmp, k.y, yield)
	}
}

func (k *atax) Output(im *memimage.Image) []float32 {
	return im.ReadF32Slice(k.y, k.n)
}

func (k *atax) Annotations() *approx.Annotations { return k.annot }

// ---- BICG (Polybench): s = A^T * r; q = A * p ---------------------------

type bicg struct {
	n             int
	a, r, p, s, q uint64
	annot         *approx.Annotations
}

func (k *bicg) Name() string     { return "BICG" }
func (k *bicg) MemBytes() uint64 { return uint64(k.n*k.n+4*k.n)*4 + 4096 }
func (k *bicg) Phases() int      { return 2 }
func (k *bicg) NumWarps(int) int { return k.n }

func (k *bicg) Setup(im *memimage.Image, rng *rand.Rand) {
	n2 := k.n * k.n
	k.a = allocF32(im, n2)
	k.r = allocF32(im, k.n)
	k.p = allocF32(im, k.n)
	k.s = allocF32(im, k.n)
	k.q = allocF32(im, k.n)
	initMixed(im, k.a, n2, 0.4, rng)
	initMixed(im, k.r, k.n, 0.4, rng)
	initMixed(im, k.p, k.n, 0.4, rng)
	k.annot = annotate(approx.Range{Base: k.a, Size: uint64(n2) * 4})
}

func (k *bicg) Program(phase, w int, ctx *core.Ctx, yield func(core.Op) bool) {
	if phase == 0 {
		colDotProgram(ctx, k.n, w, k.a, k.r, k.s, yield)
	} else {
		rowDotProgram(ctx, k.n, w, k.a, k.p, k.q, false, yield)
	}
}

func (k *bicg) Output(im *memimage.Image) []float32 {
	out := im.ReadF32Slice(k.s, k.n)
	return append(out, im.ReadF32Slice(k.q, k.n)...)
}

func (k *bicg) Annotations() *approx.Annotations { return k.annot }
