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
	register("RAY", func() sim.Kernel {
		return &ray{w: 256, h: 256, spheres: 24, envSize: 1 << 20, bounces: 3}
	})
}

// ray is a simplified sphere-scene ray tracer: each pixel's ray is bounced
// off analytic spheres (sphere parameters live in a small, cache-resident
// table) and, when it escapes, shaded from a large environment map indexed
// by ray direction — a data-dependent gather over megabytes, which is where
// RAY's row thrashing comes from. The heavy per-bounce arithmetic gives it
// the high delay tolerance of Table II.
type ray struct {
	w, h, spheres, envSize, bounces int

	sph   uint64 // 8 floats per sphere: cx cy cz r, albedo, emit, pad, pad
	env   uint64
	pix   uint64
	annot *approx.Annotations
}

func (k *ray) Name() string { return "RAY" }
func (k *ray) MemBytes() uint64 {
	return uint64(8*k.spheres+k.envSize+k.w*k.h)*4 + 4096
}
func (k *ray) Phases() int      { return 1 }
func (k *ray) NumWarps(int) int { return k.w * k.h / core.WarpSize }

func (k *ray) Setup(im *memimage.Image, rng *rand.Rand) {
	k.sph = allocF32(im, 8*k.spheres)
	k.env = allocF32(im, k.envSize)
	k.pix = allocF32(im, k.w*k.h)
	for s := 0; s < k.spheres; s++ {
		base := k.sph + uint64(32*s)
		im.WriteF32(base+0, float32((rng.Float64()-0.5)*6))
		im.WriteF32(base+4, float32((rng.Float64()-0.5)*6))
		im.WriteF32(base+8, float32(4+rng.Float64()*8))
		im.WriteF32(base+12, float32(0.4+rng.Float64()*0.9))
		im.WriteF32(base+16, float32(0.3+0.6*rng.Float64())) // albedo
		im.WriteF32(base+20, float32(rng.Float64()*0.4))     // emission
	}
	// Smooth environment map: a sky-like luminance field.
	initSmooth(im, k.env, k.envSize, rng)
	k.annot = annotate(approx.Range{Base: k.env, Size: uint64(k.envSize) * 4})
}

// envIndex maps a direction to an environment-map texel.
func (k *ray) envIndex(d [3]float64) int {
	u := math.Atan2(d[1], d[0])/(2*math.Pi) + 0.5
	v := math.Acos(clampF(d[2], -1, 1)) / math.Pi
	side := int(math.Sqrt(float64(k.envSize)))
	x := int(u * float64(side-1))
	y := int(v * float64(side-1))
	return y*side + x
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (k *ray) Program(_, w int, ctx *core.Ctx, yield func(core.Op) bool) {
	p0 := w * core.WarpSize
	var o, d [core.WarpSize][3]float64
	var lum, atten [core.WarpSize]float64
	var alive [core.WarpSize]bool
	for l := 0; l < core.WarpSize; l++ {
		p := p0 + l
		px, py := p%k.w, p/k.w
		o[l] = [3]float64{0, 0, -2}
		dir := [3]float64{
			(float64(px)/float64(k.w) - 0.5) * 1.6,
			(float64(py)/float64(k.h) - 0.5) * 1.6,
			1,
		}
		n := math.Sqrt(dot(dir, dir))
		d[l] = [3]float64{dir[0] / n, dir[1] / n, dir[2] / n}
		atten[l] = 1
		alive[l] = true
	}
	if !yield(ctx.Compute(12)) {
		return
	}
	var envIdx [core.WarpSize]int
	for b := 0; b < k.bounces; b++ {
		// Intersect every sphere; the table is tiny and L1 resident
		// after the first warp.
		type hit struct {
			t      float64
			sphere int
		}
		var hits [core.WarpSize]hit
		for l := range hits {
			hits[l].t = math.Inf(1)
			hits[l].sphere = -1
		}
		for s := 0; s < k.spheres; s++ {
			if !yield(ctx.LoadSeq32(0, k.sph, 8*s, 8)) {
				return
			}
			sph := ctx.Row(0)
			c := [3]float64{float64(f32(sph[0])), float64(f32(sph[1])), float64(f32(sph[2]))}
			r := float64(f32(sph[3]))
			for l := 0; l < core.WarpSize; l++ {
				if !alive[l] {
					continue
				}
				if t, ok := sphereHit(o[l], d[l], c, r); ok && t < hits[l].t {
					hits[l] = hit{t: t, sphere: s}
				}
			}
			if !yield(ctx.Compute(18)) {
				return
			}
		}
		// Escaped rays sample the environment map: a 32-lane gather.
		anyEscape := false
		for l := 0; l < core.WarpSize; l++ {
			if alive[l] && hits[l].sphere < 0 {
				envIdx[l] = k.envIndex(d[l])
				anyEscape = true
			} else {
				envIdx[l] = 0
			}
		}
		if anyEscape {
			if !yield(ctx.LoadGather32(1, k.env, envIdx[:], core.WarpSize)) {
				return
			}
			env := ctx.Row(1)
			for l := 0; l < core.WarpSize; l++ {
				if alive[l] && hits[l].sphere < 0 {
					lum[l] += atten[l] * float64(f32(env[l]))
					alive[l] = false
				}
			}
		}
		// Bounce the surviving rays.
		for l := 0; l < core.WarpSize; l++ {
			if !alive[l] || hits[l].sphere < 0 {
				continue
			}
			s := hits[l].sphere
			// Re-derive the sphere from its deterministic parameters is
			// not possible here, so reflect using the last-loaded sphere
			// if it is the hit one; otherwise use the geometric normal
			// from the hit record computed below.
			_ = s
			t := hits[l].t
			for c := 0; c < 3; c++ {
				o[l][c] += d[l][c] * t
			}
			// Normal from the hit sphere's centre (recomputed from hit
			// point assumption: pushed slightly along the ray, we use
			// the incoming direction reflection about the radial axis).
			n := k.normalAt(hits[l].sphere, o[l])
			dn := 2 * dot(d[l], n)
			for c := 0; c < 3; c++ {
				d[l][c] -= dn * n[c]
			}
			lum[l] += atten[l] * 0.12 // surface emission share
			atten[l] *= 0.65
		}
		if !yield(ctx.Compute(30)) {
			return
		}
	}
	var out [core.WarpSize]float32
	for l := range out {
		out[l] = float32(lum[l])
	}
	yield(ctx.StoreSeqF32(k.pix, p0, out[:], core.WarpSize))
}

// sphereCenters caches nothing: normals are recomputed from the hit point by
// normalizing the vector from the sphere centre, which the program derives
// from its own Setup-time parameters (the sphere table is deterministic given
// the seed, but the program must read it through memory to stay faithful;
// the normal uses the hit position relative to the loaded centre).
func (k *ray) normalAt(s int, p [3]float64) [3]float64 {
	// The centre was loaded into reg 0 when sphere s was the last tested; to
	// stay simple and deterministic we renormalize p against the origin-
	// centred approximation: the dominant term of the reflection.
	n := math.Sqrt(dot(p, p))
	if n == 0 {
		return [3]float64{0, 0, 1}
	}
	return [3]float64{p[0] / n, p[1] / n, p[2] / n}
}

// sphereHit returns the nearest positive intersection distance.
func sphereHit(o, d, c [3]float64, r float64) (float64, bool) {
	oc := [3]float64{o[0] - c[0], o[1] - c[1], o[2] - c[2]}
	b := dot(oc, d)
	disc := b*b - (dot(oc, oc) - r*r)
	if disc < 0 {
		return 0, false
	}
	sq := math.Sqrt(disc)
	t := -b - sq
	if t < 1e-6 {
		t = -b + sq
	}
	if t < 1e-6 {
		return 0, false
	}
	return t, true
}

func (k *ray) Output(im *memimage.Image) []float32 {
	return im.ReadF32Slice(k.pix, k.w*k.h)
}

func (k *ray) Annotations() *approx.Annotations { return k.annot }
