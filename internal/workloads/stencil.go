package workloads

import (
	"math/rand"

	"lazydram/internal/approx"
	"lazydram/internal/core"
	"lazydram/internal/memimage"
	"lazydram/internal/sim"
)

func init() {
	register("CONS", func() sim.Kernel { return &cons{n: 1 << 19} })
	register("3DCONV", func() sim.Kernel { return &conv3d{n: 64} })
	register("srad", func() sim.Kernel { return &srad{h: 512, w: 512} })
	register("LPS", func() sim.Kernel { return &lps{n: 64} })
}

// ---- CONS (Polybench/CUDA SDK 1D convolution) ---------------------------

// consTaps is the 9-tap filter applied by CONS.
var consTaps = [9]float32{0.02, 0.08, 0.16, 0.24, 0.28, 0.12, 0.06, 0.03, 0.01}

type cons struct {
	n      int
	x, out uint64
	annot  *approx.Annotations
}

func (k *cons) Name() string     { return "CONS" }
func (k *cons) MemBytes() uint64 { return uint64(2*k.n+64)*4 + 4096 }
func (k *cons) Phases() int      { return 1 }
func (k *cons) NumWarps(int) int { return k.n / core.WarpSize }

func (k *cons) Setup(im *memimage.Image, rng *rand.Rand) {
	k.x = allocF32(im, k.n+16)
	k.out = allocF32(im, k.n)
	initNoise(im, k.x, k.n+16, -1, 1, rng)
	k.annot = annotate(approx.Range{Base: k.x, Size: uint64(k.n+16) * 4})
}

func (k *cons) Program(_, w int, ctx *core.Ctx, yield func(core.Op) bool) {
	i0 := w * core.WarpSize
	// Two aligned loads cover the 32+8 inputs of this warp's window.
	if !yield(ctx.Async(ctx.LoadSeq32(0, k.x, i0, core.WarpSize))) ||
		!yield(ctx.Async(ctx.LoadSeq32(1, k.x, i0+core.WarpSize, 8))) ||
		!yield(ctx.Join()) {
		return
	}
	var win [core.WarpSize + 8]float32
	lo, hi := ctx.Row(0), ctx.Row(1)
	for l := 0; l < core.WarpSize; l++ {
		win[l] = f32(lo[l])
	}
	for l := 0; l < 8; l++ {
		win[core.WarpSize+l] = f32(hi[l])
	}
	var out [core.WarpSize]float32
	for l := 0; l < core.WarpSize; l++ {
		acc := float32(0)
		for t := 0; t < 9; t++ {
			acc += consTaps[t] * win[l+t]
		}
		out[l] = acc
	}
	if !yield(ctx.Compute(18)) {
		return
	}
	yield(ctx.StoreSeqF32(k.out, i0, out[:], core.WarpSize))
}

func (k *cons) Output(im *memimage.Image) []float32 {
	return sampleF32(im, k.out, k.n, 4096)
}

func (k *cons) Annotations() *approx.Annotations { return k.annot }

// ---- 3DCONV (Polybench 3D convolution, 3x3x3) ---------------------------

type conv3d struct {
	n       int
	in, out uint64
	annot   *approx.Annotations
}

func (k *conv3d) Name() string     { return "3DCONV" }
func (k *conv3d) MemBytes() uint64 { return uint64(2*k.n*k.n*k.n)*4 + 4096 }
func (k *conv3d) Phases() int      { return 1 }

// warpsPerRow covers the interior x range [1, n-2] in 32-lane slices.
func (k *conv3d) warpsPerRow() int { return ceilDiv(k.n-2, core.WarpSize) }

func (k *conv3d) NumWarps(int) int {
	return (k.n - 2) * (k.n - 2) * k.warpsPerRow()
}

func (k *conv3d) Setup(im *memimage.Image, rng *rand.Rand) {
	n3 := k.n * k.n * k.n
	k.in = allocF32(im, n3)
	k.out = allocF32(im, n3)
	initMixed(im, k.in, n3, 0.3, rng)
	k.annot = annotate(approx.Range{Base: k.in, Size: uint64(n3) * 4})
}

// conv3dW holds the 27 filter weights indexed by (dz+1, dy+1, dx+1).
var conv3dW = func() (w [3][3][3]float32) {
	c := [3]float32{0.2, 0.5, 0.3}
	for z := 0; z < 3; z++ {
		for y := 0; y < 3; y++ {
			for x := 0; x < 3; x++ {
				w[z][y][x] = c[z] * c[y] * c[x]
			}
		}
	}
	return w
}()

// Program: the z+-1 neighbour planes are a full n*n*4-byte stride apart, so
// every output row touches three widely separated DRAM regions — the
// row-thrashing shape of the 3D stencils in Table II.
func (k *conv3d) Program(_, w int, ctx *core.Ctx, yield func(core.Op) bool) {
	n := k.n
	wpr := k.warpsPerRow()
	row := w / wpr
	z := row/(n-2) + 1
	y := row%(n-2) + 1
	x0 := (w%wpr)*core.WarpSize + 1
	lanes := min(n-1-x0, core.WarpSize)
	var acc [core.WarpSize]float32
	idx := func(zz, yy, xx int) int { return (zz*n+yy)*n + xx }
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			base := idx(z+dz, y+dy, x0)
			if !yield(ctx.Async(ctx.LoadSeq32(0, k.in, base-1, lanes))) ||
				!yield(ctx.Async(ctx.LoadSeq32(1, k.in, base, lanes))) ||
				!yield(ctx.Async(ctx.LoadSeq32(2, k.in, base+1, lanes))) ||
				!yield(ctx.Join()) {
				return
			}
			wt := conv3dW[dz+1][dy+1]
			left, mid, right := ctx.Row(0), ctx.Row(1), ctx.Row(2)
			for l := 0; l < lanes; l++ {
				acc[l] += wt[0]*f32(left[l]) + wt[1]*f32(mid[l]) + wt[2]*f32(right[l])
			}
			if !yield(ctx.Compute(6)) {
				return
			}
		}
	}
	yield(ctx.StoreSeqF32(k.out, idx(z, y, x0), acc[:], lanes))
}

func (k *conv3d) Output(im *memimage.Image) []float32 {
	return sampleF32(im, k.out, k.n*k.n*k.n, 4096)
}

func (k *conv3d) Annotations() *approx.Annotations { return k.annot }

// ---- srad (Rodinia: speckle-reducing anisotropic diffusion) --------------

type srad struct {
	h, w    int
	in, out uint64
	annot   *approx.Annotations
}

func (k *srad) Name() string     { return "srad" }
func (k *srad) MemBytes() uint64 { return uint64(2*k.h*k.w)*4 + 4096 }
func (k *srad) Phases() int      { return 1 }

func (k *srad) warpsPerRow() int { return ceilDiv(k.w-2, core.WarpSize) }

func (k *srad) NumWarps(int) int { return (k.h - 2) * k.warpsPerRow() }

func (k *srad) Setup(im *memimage.Image, rng *rand.Rand) {
	n := k.h * k.w
	k.in = allocF32(im, n)
	k.out = allocF32(im, n)
	// Speckled (noisy, strictly positive) image: the diffusion coefficient
	// divides by the centre pixel, amplifying prediction errors — srad's low
	// error tolerance.
	initNoise(im, k.in, n, 0.2, 1.8, rng)
	k.annot = annotate(approx.Range{Base: k.in, Size: uint64(n) * 4})
}

func (k *srad) Program(_, w int, ctx *core.Ctx, yield func(core.Op) bool) {
	wpr := k.warpsPerRow()
	y := w/wpr + 1
	x0 := (w%wpr)*core.WarpSize + 1
	lanes := min(k.w-1-x0, core.WarpSize)
	i := y*k.w + x0
	if !yield(ctx.Async(ctx.LoadSeq32(0, k.in, i, lanes))) || // centre
		!yield(ctx.Async(ctx.LoadSeq32(1, k.in, i-k.w, lanes))) || // north
		!yield(ctx.Async(ctx.LoadSeq32(2, k.in, i+k.w, lanes))) || // south
		!yield(ctx.Async(ctx.LoadSeq32(3, k.in, i-1, lanes))) || // west
		!yield(ctx.Async(ctx.LoadSeq32(4, k.in, i+1, lanes))) || // east
		!yield(ctx.Join()) {
		return
	}
	var out [core.WarpSize]float32
	const lambda = 0.2
	centre, north, south := ctx.Row(0), ctx.Row(1), ctx.Row(2)
	west, east := ctx.Row(3), ctx.Row(4)
	for l := 0; l < lanes; l++ {
		c := f32(centre[l])
		d := f32(north[l]) + f32(south[l]) + f32(west[l]) + f32(east[l]) - 4*c
		r := d / c
		g := 1 / (1 + r*r) // diffusion coefficient
		out[l] = c + lambda*g*d
	}
	if !yield(ctx.Compute(25)) {
		return
	}
	yield(ctx.StoreSeqF32(k.out, i, out[:], lanes))
}

func (k *srad) Output(im *memimage.Image) []float32 {
	return sampleF32(im, k.out, k.h*k.w, 4096)
}

func (k *srad) Annotations() *approx.Annotations { return k.annot }

// ---- LPS (CUDA SDK 3D Laplace solver, one Jacobi sweep) ------------------

type lps struct {
	n       int
	in, out uint64
	annot   *approx.Annotations
}

func (k *lps) Name() string     { return "LPS" }
func (k *lps) MemBytes() uint64 { return uint64(2*k.n*k.n*k.n)*4 + 4096 }
func (k *lps) Phases() int      { return 1 }

func (k *lps) warpsPerRow() int { return ceilDiv(k.n-2, core.WarpSize) }

func (k *lps) NumWarps(int) int {
	return (k.n - 2) * (k.n - 2) * k.warpsPerRow()
}

func (k *lps) Setup(im *memimage.Image, rng *rand.Rand) {
	n3 := k.n * k.n * k.n
	k.in = allocF32(im, n3)
	k.out = allocF32(im, n3)
	initSmooth(im, k.in, n3, rng)
	k.annot = annotate(approx.Range{Base: k.in, Size: uint64(n3) * 4})
}

func (k *lps) Program(_, w int, ctx *core.Ctx, yield func(core.Op) bool) {
	n := k.n
	wpr := k.warpsPerRow()
	row := w / wpr
	z := row/(n-2) + 1
	y := row%(n-2) + 1
	x0 := (w%wpr)*core.WarpSize + 1
	lanes := min(n-1-x0, core.WarpSize)
	i := (z*n+y)*n + x0
	if !yield(ctx.Async(ctx.LoadSeq32(0, k.in, i-1, lanes))) || // west
		!yield(ctx.Async(ctx.LoadSeq32(1, k.in, i+1, lanes))) || // east
		!yield(ctx.Async(ctx.LoadSeq32(2, k.in, i-n, lanes))) || // north
		!yield(ctx.Async(ctx.LoadSeq32(3, k.in, i+n, lanes))) || // south
		!yield(ctx.Async(ctx.LoadSeq32(4, k.in, i-n*n, lanes))) || // up
		!yield(ctx.Async(ctx.LoadSeq32(5, k.in, i+n*n, lanes))) || // down
		!yield(ctx.Join()) {
		return
	}
	var out [core.WarpSize]float32
	west, east, north := ctx.Row(0), ctx.Row(1), ctx.Row(2)
	south, up, down := ctx.Row(3), ctx.Row(4), ctx.Row(5)
	for l := 0; l < lanes; l++ {
		out[l] = (f32(west[l]) + f32(east[l]) + f32(north[l]) +
			f32(south[l]) + f32(up[l]) + f32(down[l])) / 6
	}
	if !yield(ctx.Compute(7)) {
		return
	}
	yield(ctx.StoreSeqF32(k.out, i, out[:], lanes))
}

func (k *lps) Output(im *memimage.Image) []float32 {
	return sampleF32(im, k.out, k.n*k.n*k.n, 4096)
}

func (k *lps) Annotations() *approx.Annotations { return k.annot }
