package workloads

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"lazydram/internal/approx"
	"lazydram/internal/core"
	"lazydram/internal/memimage"
	"lazydram/internal/sim"
)

func init() {
	register("meanfilter", func() sim.Kernel {
		return &meanFilter{imageKernel{h: 512, w: 512}}
	})
	register("laplacian", func() sim.Kernel {
		return &laplacian{imageKernel{h: 512, w: 512}}
	})
}

// synthImage renders a deterministic synthetic photograph-like scene:
// a vignetted gradient sky, soft disks, and mild texture. Pixel values are
// in [0, 255]. Neighbouring pixels correlate strongly, which is what gives
// the image-processing applications their error tolerance under nearest-line
// value prediction.
func synthImage(im *memimage.Image, base uint64, h, w int, rng *rand.Rand) {
	type disk struct{ cx, cy, r, v float64 }
	disks := make([]disk, 6)
	for i := range disks {
		disks[i] = disk{
			cx: rng.Float64() * float64(w),
			cy: rng.Float64() * float64(h),
			r:  (0.05 + 0.2*rng.Float64()) * float64(w),
			v:  40 + 140*rng.Float64(),
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 60 + 120*float64(y)/float64(h) // sky gradient
			for _, d := range disks {
				dx, dy := float64(x)-d.cx, float64(y)-d.cy
				dist := math.Sqrt(dx*dx + dy*dy)
				if dist < d.r {
					// soft-edged disk
					t := dist / d.r
					v = v*(t*t) + d.v*(1-t*t)
				}
			}
			v += 6 * math.Sin(float64(x)/9) * math.Cos(float64(y)/11) // texture
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			im.WriteF32(base+uint64(4*(y*w+x)), float32(v))
		}
	}
}

// WritePGM encodes a float32 grayscale image (values clamped to [0,255]) as
// a binary PGM, the format used to inspect the Fig. 14 outputs.
func WritePGM(w io.Writer, pix []float32, width, height int) error {
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", width, height); err != nil {
		return err
	}
	buf := make([]byte, len(pix))
	for i, v := range pix {
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		buf[i] = byte(v)
	}
	_, err := w.Write(buf)
	return err
}

// filter3x3 is the shared 3x3 image-filter warp program: each warp produces
// 32 consecutive interior pixels of one row.
func filter3x3(ctx *core.Ctx, h, w, warp int, in, out uint64,
	kern *[3][3]float32, post func(float32) float32, yield func(core.Op) bool) {
	wpr := ceilDiv(w-2, core.WarpSize)
	y := warp/wpr + 1
	x0 := (warp%wpr)*core.WarpSize + 1
	lanes := min(w-1-x0, core.WarpSize)
	var acc [core.WarpSize]float32
	for dy := -1; dy <= 1; dy++ {
		base := (y+dy)*w + x0
		if !yield(ctx.Async(ctx.LoadSeq32(0, in, base-1, lanes))) ||
			!yield(ctx.Async(ctx.LoadSeq32(1, in, base, lanes))) ||
			!yield(ctx.Async(ctx.LoadSeq32(2, in, base+1, lanes))) ||
			!yield(ctx.Join()) {
			return
		}
		kr := kern[dy+1]
		left, mid, right := ctx.Row(0), ctx.Row(1), ctx.Row(2)
		for l := 0; l < lanes; l++ {
			acc[l] += kr[0]*f32(left[l]) + kr[1]*f32(mid[l]) + kr[2]*f32(right[l])
		}
		if !yield(ctx.Compute(6)) {
			return
		}
	}
	for l := 0; l < lanes; l++ {
		acc[l] = post(acc[l])
	}
	if !yield(ctx.Compute(2)) {
		return
	}
	yield(ctx.StoreSeqF32(out, y*w+x0, acc[:], lanes))
}

func clamp255(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return v
}

// imageKernel is the shared state of the two image filters.
type imageKernel struct {
	h, w    int
	in, out uint64
	annot   *approx.Annotations
}

func (k *imageKernel) MemBytes() uint64 { return uint64(2*k.h*k.w)*4 + 4096 }
func (k *imageKernel) Phases() int      { return 1 }

func (k *imageKernel) NumWarps(int) int {
	return (k.h - 2) * ceilDiv(k.w-2, core.WarpSize)
}

func (k *imageKernel) Setup(im *memimage.Image, rng *rand.Rand) {
	n := k.h * k.w
	k.in = allocF32(im, n)
	k.out = allocF32(im, n)
	synthImage(im, k.in, k.h, k.w, rng)
	k.annot = annotate(approx.Range{Base: k.in, Size: uint64(n) * 4})
}

func (k *imageKernel) Output(im *memimage.Image) []float32 {
	return im.ReadF32Slice(k.out, k.h*k.w)
}

func (k *imageKernel) Annotations() *approx.Annotations { return k.annot }

// Dims returns the image geometry (used by the Fig. 14 harness).
func (k *imageKernel) Dims() (w, h int) { return k.w, k.h }

// ---- meanfilter (AxBench: 3x3 noise-reduction convolution) ---------------

type meanFilter struct{ imageKernel }

var meanKernel = [3][3]float32{
	{1. / 9, 1. / 9, 1. / 9},
	{1. / 9, 1. / 9, 1. / 9},
	{1. / 9, 1. / 9, 1. / 9},
}

func (k *meanFilter) Name() string { return "meanfilter" }

func (k *meanFilter) Program(_, w int, ctx *core.Ctx, yield func(core.Op) bool) {
	filter3x3(ctx, k.h, k.w, w, k.in, k.out, &meanKernel, clamp255, yield)
}

// ---- laplacian (AxBench: image sharpening) -------------------------------

type laplacian struct{ imageKernel }

var laplacianKernel = [3][3]float32{
	{0, -1, 0},
	{-1, 5, -1},
	{0, -1, 0},
}

func (k *laplacian) Name() string { return "laplacian" }

func (k *laplacian) Program(_, w int, ctx *core.Ctx, yield func(core.Op) bool) {
	filter3x3(ctx, k.h, k.w, w, k.in, k.out, &laplacianKernel, clamp255, yield)
}
