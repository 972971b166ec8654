package workloads

import (
	"math"
	"math/rand"
	"testing"

	"lazydram/internal/core"
	"lazydram/internal/memimage"
	"lazydram/internal/sim"
)

// runKernel executes a kernel functionally and returns the image + output.
func runKernel(t *testing.T, k sim.Kernel, seed int64) (*memimage.Image, []float32) {
	t.Helper()
	im := memimage.New(k.MemBytes() + 4*memimage.LineSize)
	k.Setup(im, rand.New(rand.NewSource(seed)))
	for ph := 0; ph < k.Phases(); ph++ {
		for w := 0; w < k.NumWarps(ph); w++ {
			ctx := &core.Ctx{}
			k.Program(ph, w, ctx, func(op core.Op) bool {
				sim.ApplyOp(im, ctx, op)
				return true
			})
		}
	}
	return im, k.Output(im)
}

func approxEq(a, b float32, tol float64) bool {
	return math.Abs(float64(a)-float64(b)) <= tol*(1+math.Abs(float64(b)))
}

func TestRegistryHasAllTwentyApps(t *testing.T) {
	if got := len(Names()); got != 20 {
		t.Fatalf("registered %d apps, want 20", got)
	}
	for _, n := range Names() {
		if Group(n) < 1 || Group(n) > 4 {
			t.Fatalf("%s has no paper group", n)
		}
		k, err := New(n)
		if err != nil || k.Name() != n {
			t.Fatalf("New(%s) = %v, %v", n, k, err)
		}
	}
	if len(All()) != 20 {
		t.Fatal("All() incomplete")
	}
}

func TestGroupApps(t *testing.T) {
	total := 0
	for g := 1; g <= 4; g++ {
		total += len(GroupApps(g))
	}
	if total != 20 {
		t.Fatalf("groups cover %d apps, want 20", total)
	}
	if !ErrorTolerant("LPS") || ErrorTolerant("GEMM") {
		t.Fatal("ErrorTolerant misclassifies")
	}
}

func TestGEMMMatchesReference(t *testing.T) {
	k := &gemm{n: 64}
	im, out := runKernel(t, k, 3)
	n := k.n
	a := im.ReadF32Slice(k.a, n*n)
	b := im.ReadF32Slice(k.b, n*n)
	// C was overwritten; recompute the reference from fresh inputs.
	im2 := memimage.New(k.MemBytes() + 512)
	k2 := &gemm{n: 64}
	k2.Setup(im2, rand.New(rand.NewSource(3)))
	c0 := im2.ReadF32Slice(k2.c, n*n)
	for i := 0; i < n; i += 13 {
		for j := 0; j < n; j += 7 {
			var acc float32
			for kk := 0; kk < n; kk++ {
				acc += a[i*n+kk] * b[kk*n+j]
			}
			want := 1.5*acc + 0.8*c0[i*n+j]
			if !approxEq(out[i*n+j], want, 1e-4) {
				t.Fatalf("C[%d,%d] = %v, want %v", i, j, out[i*n+j], want)
			}
		}
	}
}

func TestTwoMMMatchesReference(t *testing.T) {
	k := &twoMM{n: 32}
	im, out := runKernel(t, k, 4)
	n := k.n
	a := im.ReadF32Slice(k.a, n*n)
	b := im.ReadF32Slice(k.b, n*n)
	c := im.ReadF32Slice(k.c, n*n)
	d := make([]float32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for kk := 0; kk < n; kk++ {
				acc += a[i*n+kk] * b[kk*n+j]
			}
			d[i*n+j] = acc
		}
	}
	for i := 0; i < n; i += 5 {
		for j := 0; j < n; j += 3 {
			var acc float32
			for kk := 0; kk < n; kk++ {
				acc += d[i*n+kk] * c[kk*n+j]
			}
			if !approxEq(out[i*n+j], acc, 1e-3) {
				t.Fatalf("E[%d,%d] = %v, want %v", i, j, out[i*n+j], acc)
			}
		}
	}
}

func TestMVTMatchesReference(t *testing.T) {
	k := &mvt{n: 64}
	im, out := runKernel(t, k, 5)
	n := k.n
	a := im.ReadF32Slice(k.a, n*n)
	// Inputs y1/y2/x1/x2 from a fresh setup (x1/x2 were updated in place).
	im2 := memimage.New(k.MemBytes() + 512)
	k2 := &mvt{n: 64}
	k2.Setup(im2, rand.New(rand.NewSource(5)))
	y1 := im2.ReadF32Slice(k2.y1, n)
	y2 := im2.ReadF32Slice(k2.y2, n)
	x10 := im2.ReadF32Slice(k2.x1, n)
	for i := 0; i < n; i += 9 {
		var acc float32
		for j := 0; j < n; j++ {
			acc += a[i*n+j] * y1[j]
		}
		if want := acc + x10[i]; !approxEq(out[i], want, 1e-4) {
			t.Fatalf("x1[%d] = %v, want %v", i, out[i], want)
		}
	}
	for j := 0; j < n; j += 11 {
		var acc float32
		for i := 0; i < n; i++ {
			acc += a[i*n+j] * y2[i]
		}
		if !approxEq(out[n+j], acc, 1e-4) {
			t.Fatalf("x2[%d] = %v, want %v", j, out[n+j], acc)
		}
	}
}

func TestATAXMatchesReference(t *testing.T) {
	k := &atax{n: 64}
	im, out := runKernel(t, k, 6)
	n := k.n
	a := im.ReadF32Slice(k.a, n*n)
	x := im.ReadF32Slice(k.x, n)
	tmp := make([]float32, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			tmp[i] += a[i*n+j] * x[j]
		}
	}
	for j := 0; j < n; j += 7 {
		var acc float32
		for i := 0; i < n; i++ {
			acc += a[i*n+j] * tmp[i]
		}
		if !approxEq(out[j], acc, 1e-3) {
			t.Fatalf("y[%d] = %v, want %v", j, out[j], acc)
		}
	}
}

func TestBICGMatchesReference(t *testing.T) {
	k := &bicg{n: 64}
	im, out := runKernel(t, k, 7)
	n := k.n
	a := im.ReadF32Slice(k.a, n*n)
	r := im.ReadF32Slice(k.r, n)
	p := im.ReadF32Slice(k.p, n)
	for j := 0; j < n; j += 13 {
		var acc float32
		for i := 0; i < n; i++ {
			acc += a[i*n+j] * r[i]
		}
		if !approxEq(out[j], acc, 1e-4) {
			t.Fatalf("s[%d] = %v, want %v", j, out[j], acc)
		}
	}
	for i := 0; i < n; i += 11 {
		var acc float32
		for j := 0; j < n; j++ {
			acc += a[i*n+j] * p[j]
		}
		if !approxEq(out[n+i], acc, 1e-4) {
			t.Fatalf("q[%d] = %v, want %v", i, out[n+i], acc)
		}
	}
}

func TestSCPMatchesReference(t *testing.T) {
	k := &scp{pairs: 8, length: 64}
	im, out := runKernel(t, k, 8)
	a := im.ReadF32Slice(k.a, k.pairs*k.length)
	b := im.ReadF32Slice(k.b, k.pairs*k.length)
	for p := 0; p < k.pairs; p++ {
		var acc float32
		for c := 0; c < k.length; c++ {
			acc += a[p*k.length+c] * b[p*k.length+c]
		}
		if !approxEq(out[p], acc, 1e-4) {
			t.Fatalf("dot[%d] = %v, want %v", p, out[p], acc)
		}
	}
}

func TestFWTMatchesReference(t *testing.T) {
	k := &fwt{logN: 8}
	// Save the input before the in-place transform.
	imIn := memimage.New(k.MemBytes() + 512)
	kin := &fwt{logN: 8}
	kin.Setup(imIn, rand.New(rand.NewSource(9)))
	in := imIn.ReadF32Slice(kin.data, kin.n())
	im, _ := runKernel(t, k, 9)
	got := im.ReadF32Slice(k.data, k.n())
	// Reference Walsh-Hadamard transform.
	want := append([]float32(nil), in...)
	n := k.n()
	for st := 1; st < n; st *= 2 {
		for i := 0; i < n; i += 2 * st {
			for j := i; j < i+st; j++ {
				a, b := want[j], want[j+st]
				want[j], want[j+st] = a+b, a-b
			}
		}
	}
	for i := 0; i < n; i += 3 {
		if !approxEq(got[i], want[i], 1e-4) {
			t.Fatalf("fwt[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSLAComputesPrefixSum(t *testing.T) {
	k := &sla{n: 4 * slaChunk * 32} // 4 super-blocks
	imIn := memimage.New(k.MemBytes() + 512)
	kin := &sla{n: k.n}
	kin.Setup(imIn, rand.New(rand.NewSource(10)))
	in := imIn.ReadF32Slice(kin.data, kin.n)
	im, _ := runKernel(t, k, 10)
	got := im.ReadF32Slice(k.out, k.n)
	var run float64
	for i := 0; i < k.n; i++ {
		run += float64(in[i])
		if i%997 == 0 || i == k.n-1 {
			if math.Abs(float64(got[i])-run) > 1e-2*(1+math.Abs(run)) {
				t.Fatalf("scan[%d] = %v, want %v", i, got[i], run)
			}
		}
	}
}

func TestCONSMatchesReference(t *testing.T) {
	k := &cons{n: 1024}
	im, _ := runKernel(t, k, 11)
	x := im.ReadF32Slice(k.x, k.n+16)
	got := im.ReadF32Slice(k.out, k.n)
	for i := 0; i < k.n; i += 101 {
		var acc float32
		for t2 := 0; t2 < 9; t2++ {
			acc += consTaps[t2] * x[i+t2]
		}
		if !approxEq(got[i], acc, 1e-5) {
			t.Fatalf("out[%d] = %v, want %v", i, got[i], acc)
		}
	}
}

func TestLPSMatchesReference(t *testing.T) {
	k := &lps{n: 16}
	im, _ := runKernel(t, k, 12)
	n := k.n
	in := im.ReadF32Slice(k.in, n*n*n)
	got := im.ReadF32Slice(k.out, n*n*n)
	idx := func(z, y, x int) int { return (z*n+y)*n + x }
	for z := 1; z < n-1; z += 3 {
		for y := 1; y < n-1; y += 2 {
			for x := 1; x < n-1; x++ {
				want := (in[idx(z, y, x-1)] + in[idx(z, y, x+1)] +
					in[idx(z, y-1, x)] + in[idx(z, y+1, x)] +
					in[idx(z-1, y, x)] + in[idx(z+1, y, x)]) / 6
				if !approxEq(got[idx(z, y, x)], want, 1e-5) {
					t.Fatalf("lps[%d,%d,%d] = %v, want %v", z, y, x, got[idx(z, y, x)], want)
				}
			}
		}
	}
}

func Test3DCONVMatchesReference(t *testing.T) {
	k := &conv3d{n: 16}
	im, _ := runKernel(t, k, 13)
	n := k.n
	in := im.ReadF32Slice(k.in, n*n*n)
	got := im.ReadF32Slice(k.out, n*n*n)
	idx := func(z, y, x int) int { return (z*n+y)*n + x }
	for z := 1; z < n-1; z += 4 {
		for y := 1; y < n-1; y += 3 {
			for x := 1; x < n-1; x += 2 {
				var want float32
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							want += conv3dW[dz+1][dy+1][dx+1] * in[idx(z+dz, y+dy, x+dx)]
						}
					}
				}
				if !approxEq(got[idx(z, y, x)], want, 1e-4) {
					t.Fatalf("conv[%d,%d,%d] = %v, want %v", z, y, x, got[idx(z, y, x)], want)
				}
			}
		}
	}
}

func TestSradMatchesReference(t *testing.T) {
	k := &srad{h: 64, w: 64}
	im, _ := runKernel(t, k, 14)
	in := im.ReadF32Slice(k.in, k.h*k.w)
	got := im.ReadF32Slice(k.out, k.h*k.w)
	for y := 1; y < k.h-1; y += 7 {
		for x := 1; x < k.w-1; x += 5 {
			i := y*k.w + x
			c := in[i]
			d := in[i-k.w] + in[i+k.w] + in[i-1] + in[i+1] - 4*c
			r := d / c
			g := 1 / (1 + r*r)
			want := c + 0.2*g*d
			if !approxEq(got[i], want, 1e-4) {
				t.Fatalf("srad[%d,%d] = %v, want %v", y, x, got[i], want)
			}
		}
	}
}

func TestMeanFilterMatchesReference(t *testing.T) {
	k := &meanFilter{imageKernel{h: 64, w: 64}}
	im, _ := runKernel(t, k, 15)
	in := im.ReadF32Slice(k.in, k.h*k.w)
	got := im.ReadF32Slice(k.out, k.h*k.w)
	for y := 1; y < k.h-1; y += 9 {
		for x := 1; x < k.w-1; x += 6 {
			var want float32
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					want += in[(y+dy)*k.w+x+dx] / 9
				}
			}
			if !approxEq(got[y*k.w+x], clamp255(want), 1e-4) {
				t.Fatalf("mean[%d,%d] = %v, want %v", y, x, got[y*k.w+x], want)
			}
		}
	}
}

func TestLaplacianSharpens(t *testing.T) {
	k := &laplacian{imageKernel{h: 64, w: 64}}
	im, _ := runKernel(t, k, 16)
	in := im.ReadF32Slice(k.in, k.h*k.w)
	got := im.ReadF32Slice(k.out, k.h*k.w)
	for y := 1; y < k.h-1; y += 8 {
		for x := 1; x < k.w-1; x += 5 {
			i := y*k.w + x
			want := clamp255(5*in[i] - in[i-1] - in[i+1] - in[i-k.w] - in[i+k.w])
			if !approxEq(got[i], want, 1e-4) {
				t.Fatalf("lap[%d,%d] = %v, want %v", y, x, got[i], want)
			}
		}
	}
}

func TestInversek2jForwardKinematics(t *testing.T) {
	k := &inversek2j{n: 2048}
	im, _ := runKernel(t, k, 17)
	x := im.ReadF32Slice(k.x, k.n)
	y := im.ReadF32Slice(k.y, k.n)
	t1 := im.ReadF32Slice(k.th1, k.n)
	t2 := im.ReadF32Slice(k.th2, k.n)
	for i := 0; i < k.n; i += 111 {
		// Forward kinematics must land back on the target.
		fx := ik2jL1*math.Cos(float64(t1[i])) + ik2jL2*math.Cos(float64(t1[i])+float64(t2[i]))
		fy := ik2jL1*math.Sin(float64(t1[i])) + ik2jL2*math.Sin(float64(t1[i])+float64(t2[i]))
		if math.Abs(fx-float64(x[i])) > 1e-3 || math.Abs(fy-float64(y[i])) > 1e-3 {
			t.Fatalf("ik[%d]: forward (%v,%v), target (%v,%v)", i, fx, fy, x[i], y[i])
		}
	}
}

func TestNewtonraphSolvesExpEquation(t *testing.T) {
	k := &newtonraph{n: 2048}
	im, _ := runKernel(t, k, 18)
	a := im.ReadF32Slice(k.a, k.n)
	root := im.ReadF32Slice(k.root, k.n)
	for i := 0; i < k.n; i += 77 {
		if got := math.Exp(float64(root[i])); math.Abs(got-float64(a[i])) > 1e-4 {
			t.Fatalf("exp(root[%d]) = %v, want %v", i, got, a[i])
		}
	}
}

func TestBlackscholesParityAndBounds(t *testing.T) {
	k := &blackscholes{n: 2048}
	im, _ := runKernel(t, k, 19)
	s := im.ReadF32Slice(k.s, k.n)
	strike := im.ReadF32Slice(k.strike, k.n)
	tt := im.ReadF32Slice(k.t, k.n)
	call := im.ReadF32Slice(k.call, k.n)
	put := im.ReadF32Slice(k.put, k.n)
	for i := 0; i < k.n; i += 53 {
		if call[i] < -1e-3 || put[i] < -1e-3 {
			t.Fatalf("negative option price at %d: call=%v put=%v", i, call[i], put[i])
		}
		// Put-call parity: C - P = S - K e^{-rT}.
		lhs := float64(call[i] - put[i])
		rhs := float64(s[i]) - float64(strike[i])*math.Exp(-bsRate*float64(tt[i]))
		if math.Abs(lhs-rhs) > 1e-2 {
			t.Fatalf("parity violated at %d: %v vs %v", i, lhs, rhs)
		}
		// A call can never exceed the stock price.
		if float64(call[i]) > float64(s[i])+1e-3 {
			t.Fatalf("call %v above stock %v", call[i], s[i])
		}
	}
}

func TestJmeinMatchesReference(t *testing.T) {
	k := &jmein{rays: 512, tris: 1024, testsPerRay: 8}
	im, out := runKernel(t, k, 20)
	tri := im.ReadF32Slice(k.tri, 9*k.tris)
	ox := im.ReadF32Slice(k.ox, k.rays)
	oy := im.ReadF32Slice(k.oy, k.rays)
	oz := im.ReadF32Slice(k.oz, k.rays)
	dx := im.ReadF32Slice(k.dx, k.rays)
	dy := im.ReadF32Slice(k.dy, k.rays)
	dz := im.ReadF32Slice(k.dz, k.rays)
	for ray := 0; ray < k.rays; ray += 37 {
		w := ray / 32
		best := float32(1e3)
		o := [3]float64{float64(ox[ray]), float64(oy[ray]), float64(oz[ray])}
		d := [3]float64{float64(dx[ray]), float64(dy[ray]), float64(dz[ray])}
		for step := 0; step < k.testsPerRay; step++ {
			ti := k.triOrder(w, step)
			v := tri[9*ti : 9*ti+9]
			v0 := [3]float64{float64(v[0]), float64(v[1]), float64(v[2])}
			e1 := [3]float64{float64(v[3] - v[0]), float64(v[4] - v[1]), float64(v[5] - v[2])}
			e2 := [3]float64{float64(v[6] - v[0]), float64(v[7] - v[1]), float64(v[8] - v[2])}
			if hit, dist := mollerTrumbore(o, d, v0, e1, e2); hit && float32(dist) < best {
				best = float32(dist)
			}
		}
		if !approxEq(out[ray], best, 1e-3) {
			t.Fatalf("dist[%d] = %v, want %v", ray, out[ray], best)
		}
	}
}

func TestRAYProducesPlausibleImage(t *testing.T) {
	k := &ray{w: 64, h: 64, spheres: 8, envSize: 1 << 14, bounces: 2}
	_, out := runKernel(t, k, 21)
	if len(out) != 64*64 {
		t.Fatalf("output %d pixels, want %d", len(out), 64*64)
	}
	var mn, mx float32 = math.MaxFloat32, -math.MaxFloat32
	for _, v := range out {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("non-finite luminance")
		}
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if mx == mn {
		t.Fatal("flat image: tracer produced no structure")
	}
}

func TestDeterministicSetup(t *testing.T) {
	for _, name := range []string{"GEMM", "RAY", "jmein"} {
		k1, _ := New(name)
		k2, _ := New(name)
		im1 := memimage.New(k1.MemBytes() + 512)
		im2 := memimage.New(k2.MemBytes() + 512)
		k1.Setup(im1, rand.New(rand.NewSource(9)))
		k2.Setup(im2, rand.New(rand.NewSource(9)))
		for addr := uint64(0); addr < 4096; addr += 4 {
			if im1.Read32(addr+128) != im2.Read32(addr+128) {
				t.Fatalf("%s: setup not deterministic at %d", name, addr)
			}
		}
	}
}

// TestAllAddressesInBounds streams every kernel's warp programs (sampled)
// and checks that all generated addresses are word-aligned and inside the
// declared memory footprint.
func TestAllAddressesInBounds(t *testing.T) {
	for _, name := range Names() {
		k, _ := New(name)
		im := memimage.New(k.MemBytes() + 4*memimage.LineSize)
		k.Setup(im, rand.New(rand.NewSource(2)))
		limit := k.MemBytes() + 4*memimage.LineSize
		for ph := 0; ph < k.Phases(); ph++ {
			warps := k.NumWarps(ph)
			stride := warps/64 + 1
			for w := 0; w < warps; w += stride {
				ctx := &core.Ctx{}
				k.Program(ph, w, ctx, func(op core.Op) bool {
					if op.Lanes == nil {
						return true
					}
					for l := 0; l < 32; l++ {
						if op.Lanes.Active&(1<<uint(l)) == 0 {
							continue
						}
						a := op.Lanes.Addr(l)
						if a%4 != 0 {
							t.Fatalf("%s phase %d warp %d: unaligned address %d", name, ph, w, a)
						}
						if a+4 > limit {
							t.Fatalf("%s phase %d warp %d: address %d beyond %d", name, ph, w, a, limit)
						}
					}
					// Apply so data-dependent later phases see real values.
					sim.ApplyOp(im, ctx, op)
					return true
				})
			}
		}
	}
}
