package workloads

import (
	"math"
	"math/rand"

	"lazydram/internal/approx"
	"lazydram/internal/core"
	"lazydram/internal/memimage"
	"lazydram/internal/sim"
)

func init() {
	register("inversek2j", func() sim.Kernel { return &inversek2j{n: 1 << 18} })
	register("newtonraph", func() sim.Kernel { return &newtonraph{n: 1 << 18} })
	register("blackscholes", func() sim.Kernel { return &blackscholes{n: 1 << 18} })
	register("jmein", func() sim.Kernel { return &jmein{rays: 1 << 15, tris: 1 << 15, testsPerRay: 24} })
}

// ---- inversek2j (AxBench: 2-joint arm inverse kinematics) ----------------

type inversek2j struct {
	n              int
	x, y, th1, th2 uint64
	annot          *approx.Annotations
}

func (k *inversek2j) Name() string     { return "inversek2j" }
func (k *inversek2j) MemBytes() uint64 { return uint64(4*k.n)*4 + 4096 }
func (k *inversek2j) Phases() int      { return 1 }
func (k *inversek2j) NumWarps(int) int { return k.n / core.WarpSize }

const ik2jL1, ik2jL2 = 0.5, 0.5

func (k *inversek2j) Setup(im *memimage.Image, rng *rand.Rand) {
	k.x = allocF32(im, k.n)
	k.y = allocF32(im, k.n)
	k.th1 = allocF32(im, k.n)
	k.th2 = allocF32(im, k.n)
	// Smooth end-effector trajectory inside the reachable annulus.
	phase := rng.Float64()
	for i := 0; i < k.n; i++ {
		t := float64(i) / 500
		r := 0.45 + 0.4*math.Abs(math.Sin(t/7+phase))
		a := t/3 + phase
		im.WriteF32(k.x+uint64(4*i), float32(r*math.Cos(a)))
		im.WriteF32(k.y+uint64(4*i), float32(r*math.Sin(a)))
	}
	k.annot = annotate(
		approx.Range{Base: k.x, Size: uint64(k.n) * 4},
		approx.Range{Base: k.y, Size: uint64(k.n) * 4},
	)
}

func (k *inversek2j) Program(_, w int, ctx *core.Ctx, yield func(core.Op) bool) {
	i0 := w * core.WarpSize
	if !yield(ctx.Async(ctx.LoadSeq32(0, k.x, i0, core.WarpSize))) ||
		!yield(ctx.Async(ctx.LoadSeq32(1, k.y, i0, core.WarpSize))) ||
		!yield(ctx.Join()) {
		return
	}
	var t1, t2 [core.WarpSize]float32
	xs, ys := ctx.Row(0), ctx.Row(1)
	for l := 0; l < core.WarpSize; l++ {
		x := float64(f32(xs[l]))
		y := float64(f32(ys[l]))
		c2 := (x*x + y*y - ik2jL1*ik2jL1 - ik2jL2*ik2jL2) / (2 * ik2jL1 * ik2jL2)
		if c2 > 1 {
			c2 = 1
		}
		if c2 < -1 {
			c2 = -1
		}
		th2 := math.Acos(c2)
		th1 := math.Atan2(y, x) - math.Atan2(ik2jL2*math.Sin(th2), ik2jL1+ik2jL2*math.Cos(th2))
		t1[l] = float32(th1)
		t2[l] = float32(th2)
	}
	if !yield(ctx.Compute(40)) || // trig-heavy
		!yield(ctx.StoreSeqF32(k.th1, i0, t1[:], core.WarpSize)) {
		return
	}
	yield(ctx.StoreSeqF32(k.th2, i0, t2[:], core.WarpSize))
}

func (k *inversek2j) Output(im *memimage.Image) []float32 {
	out := sampleF32(im, k.th1, k.n, 4096)
	return append(out, sampleF32(im, k.th2, k.n, 4096)...)
}

func (k *inversek2j) Annotations() *approx.Annotations { return k.annot }

// ---- newtonraph (AxBench: Newton-Raphson equation solver) ----------------

type newtonraph struct {
	n       int
	a, root uint64
	annot   *approx.Annotations
}

func (k *newtonraph) Name() string     { return "newtonraph" }
func (k *newtonraph) MemBytes() uint64 { return uint64(2*k.n)*4 + 4096 }
func (k *newtonraph) Phases() int      { return 1 }
func (k *newtonraph) NumWarps(int) int { return k.n / core.WarpSize }

func (k *newtonraph) Setup(im *memimage.Image, rng *rand.Rand) {
	// Roots of exp(x) = a for a near 1: the solution ln(a) crosses zero, so
	// small input perturbations produce huge relative output errors — the
	// low error tolerance of Table II.
	k.a = allocF32(im, k.n)
	k.root = allocF32(im, k.n)
	initNoise(im, k.a, k.n, 0.5, 1.8, rng)
	k.annot = annotate(approx.Range{Base: k.a, Size: uint64(k.n) * 4})
}

func (k *newtonraph) Program(_, w int, ctx *core.Ctx, yield func(core.Op) bool) {
	i0 := w * core.WarpSize
	if !yield(ctx.LoadSeq32(0, k.a, i0, core.WarpSize)) {
		return
	}
	var x [core.WarpSize]float32
	for l := range x {
		x[l] = 0.5 // initial guess
	}
	as := ctx.Row(0)
	for it := 0; it < 8; it++ {
		for l := 0; l < core.WarpSize; l++ {
			a := f32(as[l])
			// x <- x - (exp(x)-a)/exp(x)
			e := float32(math.Exp(float64(x[l])))
			x[l] = x[l] - (e-a)/e
		}
		if !yield(ctx.Compute(14)) {
			return
		}
	}
	yield(ctx.StoreSeqF32(k.root, i0, x[:], core.WarpSize))
}

func (k *newtonraph) Output(im *memimage.Image) []float32 {
	return sampleF32(im, k.root, k.n, 4096)
}

func (k *newtonraph) Annotations() *approx.Annotations { return k.annot }

// ---- blackscholes (AxBench/PARSEC: European option pricing) --------------

type blackscholes struct {
	n               int
	s, strike, t, v uint64
	call, put       uint64
	annot           *approx.Annotations
}

func (k *blackscholes) Name() string     { return "blackscholes" }
func (k *blackscholes) MemBytes() uint64 { return uint64(6*k.n)*4 + 4096 }
func (k *blackscholes) Phases() int      { return 1 }
func (k *blackscholes) NumWarps(int) int { return k.n / core.WarpSize }

const bsRate = 0.02

func (k *blackscholes) Setup(im *memimage.Image, rng *rand.Rand) {
	k.s = allocF32(im, k.n)
	k.strike = allocF32(im, k.n)
	k.t = allocF32(im, k.n)
	k.v = allocF32(im, k.n)
	k.call = allocF32(im, k.n)
	k.put = allocF32(im, k.n)
	initNoise(im, k.s, k.n, 20, 120, rng)
	initNoise(im, k.strike, k.n, 20, 120, rng)
	initNoise(im, k.t, k.n, 0.1, 2.0, rng)
	initNoise(im, k.v, k.n, 0.1, 0.6, rng)
	k.annot = annotate(
		approx.Range{Base: k.s, Size: uint64(k.n) * 4},
		approx.Range{Base: k.strike, Size: uint64(k.n) * 4},
		approx.Range{Base: k.t, Size: uint64(k.n) * 4},
		approx.Range{Base: k.v, Size: uint64(k.n) * 4},
	)
}

// cnd is the cumulative normal distribution (Abramowitz-Stegun).
func cnd(x float64) float64 {
	l := math.Abs(x)
	k1 := 1 / (1 + 0.2316419*l)
	poly := k1 * (0.319381530 + k1*(-0.356563782+k1*(1.781477937+k1*(-1.821255978+k1*1.330274429))))
	w := 1 - 1/math.Sqrt(2*math.Pi)*math.Exp(-l*l/2)*poly
	if x < 0 {
		return 1 - w
	}
	return w
}

func (k *blackscholes) Program(_, w int, ctx *core.Ctx, yield func(core.Op) bool) {
	i0 := w * core.WarpSize
	if !yield(ctx.Async(ctx.LoadSeq32(0, k.s, i0, core.WarpSize))) ||
		!yield(ctx.Async(ctx.LoadSeq32(1, k.strike, i0, core.WarpSize))) ||
		!yield(ctx.Async(ctx.LoadSeq32(2, k.t, i0, core.WarpSize))) ||
		!yield(ctx.Async(ctx.LoadSeq32(3, k.v, i0, core.WarpSize))) ||
		!yield(ctx.Join()) {
		return
	}
	var call, put [core.WarpSize]float32
	ss, xs, ts, vs := ctx.Row(0), ctx.Row(1), ctx.Row(2), ctx.Row(3)
	for l := 0; l < core.WarpSize; l++ {
		s := float64(f32(ss[l]))
		x := float64(f32(xs[l]))
		t := float64(f32(ts[l]))
		v := float64(f32(vs[l]))
		sqrtT := math.Sqrt(t)
		d1 := (math.Log(s/x) + (bsRate+v*v/2)*t) / (v * sqrtT)
		d2 := d1 - v*sqrtT
		expRT := math.Exp(-bsRate * t)
		c := s*cnd(d1) - x*expRT*cnd(d2)
		call[l] = float32(c)
		put[l] = float32(c - s + x*expRT) // put-call parity
	}
	if !yield(ctx.Compute(80)) ||
		!yield(ctx.StoreSeqF32(k.call, i0, call[:], core.WarpSize)) {
		return
	}
	yield(ctx.StoreSeqF32(k.put, i0, put[:], core.WarpSize))
}

func (k *blackscholes) Output(im *memimage.Image) []float32 {
	out := sampleF32(im, k.call, k.n, 4096)
	return append(out, sampleF32(im, k.put, k.n, 4096)...)
}

func (k *blackscholes) Annotations() *approx.Annotations { return k.annot }

// ---- jmein (AxBench: ray-triangle intersection detection) ----------------

type jmein struct {
	rays, tris, testsPerRay int

	ox, oy, oz, dx, dy, dz uint64
	tri                    uint64 // 9 floats per triangle (v0,v1,v2)
	dist                   uint64
	annot                  *approx.Annotations
}

func (k *jmein) Name() string { return "jmein" }
func (k *jmein) MemBytes() uint64 {
	return uint64(7*k.rays+9*k.tris)*4 + 4096
}
func (k *jmein) Phases() int      { return 1 }
func (k *jmein) NumWarps(int) int { return k.rays / core.WarpSize }

func (k *jmein) Setup(im *memimage.Image, rng *rand.Rand) {
	k.ox = allocF32(im, k.rays)
	k.oy = allocF32(im, k.rays)
	k.oz = allocF32(im, k.rays)
	k.dx = allocF32(im, k.rays)
	k.dy = allocF32(im, k.rays)
	k.dz = allocF32(im, k.rays)
	k.tri = allocF32(im, 9*k.tris)
	k.dist = allocF32(im, k.rays)
	for i := 0; i < k.rays; i++ {
		t := float64(i) / 300
		im.WriteF32(k.ox+uint64(4*i), float32(2*math.Cos(t)))
		im.WriteF32(k.oy+uint64(4*i), float32(2*math.Sin(t)))
		im.WriteF32(k.oz+uint64(4*i), float32(-3))
		d := [3]float64{0.3 * math.Sin(t/3), 0.3 * math.Cos(t/5), 1}
		n := math.Sqrt(d[0]*d[0] + d[1]*d[1] + d[2]*d[2])
		im.WriteF32(k.dx+uint64(4*i), float32(d[0]/n))
		im.WriteF32(k.dy+uint64(4*i), float32(d[1]/n))
		im.WriteF32(k.dz+uint64(4*i), float32(d[2]/n))
	}
	// Triangles scattered in a slab in front of the rays.
	for t := 0; t < k.tris; t++ {
		cx := (rng.Float64() - 0.5) * 8
		cy := (rng.Float64() - 0.5) * 8
		cz := rng.Float64() * 10
		base := k.tri + uint64(36*t)
		for v := 0; v < 3; v++ {
			im.WriteF32(base+uint64(12*v+0), float32(cx+(rng.Float64()-0.5)))
			im.WriteF32(base+uint64(12*v+4), float32(cy+(rng.Float64()-0.5)))
			im.WriteF32(base+uint64(12*v+8), float32(cz+(rng.Float64()-0.5)*0.3))
		}
	}
	k.annot = annotate(approx.Range{Base: k.tri, Size: uint64(9*k.tris) * 4})
}

// triOrder returns the pseudo-random triangle visited by warp w at step t —
// a stand-in for acceleration-structure traversal, producing the scattered
// read pattern that makes jmein thrash rows.
func (k *jmein) triOrder(w, t int) int {
	h := uint64(w)*0x9E3779B97F4A7C15 + uint64(t)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	h *= 0x94D049BB133111EB
	h ^= h >> 29
	return int(h % uint64(k.tris))
}

func (k *jmein) Program(_, w int, ctx *core.Ctx, yield func(core.Op) bool) {
	i0 := w * core.WarpSize
	// Ray origin/direction, coalesced.
	for r, base := range []uint64{k.ox, k.oy, k.oz, k.dx, k.dy, k.dz} {
		if !yield(ctx.Async(ctx.LoadSeq32(r, base, i0, core.WarpSize))) {
			return
		}
	}
	if !yield(ctx.Join()) {
		return
	}
	var o, d [core.WarpSize][3]float64
	ox, oy, oz := ctx.Row(0), ctx.Row(1), ctx.Row(2)
	dx, dy, dz := ctx.Row(3), ctx.Row(4), ctx.Row(5)
	for l := 0; l < core.WarpSize; l++ {
		o[l] = [3]float64{float64(f32(ox[l])), float64(f32(oy[l])), float64(f32(oz[l]))}
		d[l] = [3]float64{float64(f32(dx[l])), float64(f32(dy[l])), float64(f32(dz[l]))}
	}
	var best [core.WarpSize]float32
	for l := range best {
		best[l] = 1e3 // miss sentinel
	}
	for t := 0; t < k.testsPerRay; t++ {
		ti := k.triOrder(w, t)
		if !yield(ctx.LoadSeq32(6, k.tri, 9*ti, 9)) {
			return
		}
		var v [9]float64
		tri := ctx.Row(6)
		for c := 0; c < 9; c++ {
			v[c] = float64(f32(tri[c]))
		}
		v0 := [3]float64{v[0], v[1], v[2]}
		e1 := [3]float64{v[3] - v[0], v[4] - v[1], v[5] - v[2]}
		e2 := [3]float64{v[6] - v[0], v[7] - v[1], v[8] - v[2]}
		for l := 0; l < core.WarpSize; l++ {
			if hit, dist := mollerTrumbore(o[l], d[l], v0, e1, e2); hit && float32(dist) < best[l] {
				best[l] = float32(dist)
			}
		}
		if !yield(ctx.Compute(25)) {
			return
		}
	}
	yield(ctx.StoreSeqF32(k.dist, i0, best[:], core.WarpSize))
}

// mollerTrumbore intersects a ray with a triangle given one vertex and two
// edge vectors; it returns the hit distance along the ray.
func mollerTrumbore(o, d, v0, e1, e2 [3]float64) (bool, float64) {
	p := cross(d, e2)
	det := dot(e1, p)
	if math.Abs(det) < 1e-9 {
		return false, 0
	}
	inv := 1 / det
	tv := [3]float64{o[0] - v0[0], o[1] - v0[1], o[2] - v0[2]}
	u := dot(tv, p) * inv
	if u < 0 || u > 1 {
		return false, 0
	}
	q := cross(tv, e1)
	v := dot(d, q) * inv
	if v < 0 || u+v > 1 {
		return false, 0
	}
	t := dot(e2, q) * inv
	return t > 1e-6, t
}

func dot(a, b [3]float64) float64 { return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] }

func cross(a, b [3]float64) [3]float64 {
	return [3]float64{
		a[1]*b[2] - a[2]*b[1],
		a[2]*b[0] - a[0]*b[2],
		a[0]*b[1] - a[1]*b[0],
	}
}

func (k *jmein) Output(im *memimage.Image) []float32 {
	return im.ReadF32Slice(k.dist, k.rays)
}

func (k *jmein) Annotations() *approx.Annotations { return k.annot }
