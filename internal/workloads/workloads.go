// Package workloads re-implements the paper's 20 GPGPU applications
// (Table II) as Go kernels for the simulator: real data, real arithmetic,
// and the same memory-access shapes as the originals, so that row-buffer
// behaviour and approximation-induced output error are both genuine.
//
// Every kernel is deterministic given the seed passed to Setup. Inputs are
// scaled so a full run finishes in seconds on a laptop while still issuing
// tens to hundreds of thousands of DRAM requests.
package workloads

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"lazydram/internal/approx"
	"lazydram/internal/memimage"
	"lazydram/internal/sim"
)

// Factory creates a fresh kernel instance.
type Factory func() sim.Kernel

var registry = map[string]Factory{}

// register adds a kernel factory; called from init functions of the kernel
// files.
func register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic("workloads: duplicate kernel " + name)
	}
	registry[name] = f
}

// New returns a fresh instance of the named kernel.
func New(name string) (sim.Kernel, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown kernel %q", name)
	}
	return f(), nil
}

// Names returns all registered kernel names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns a fresh instance of every kernel, sorted by name.
func All() []sim.Kernel {
	var out []sim.Kernel
	for _, n := range Names() {
		k, _ := New(n)
		out = append(out, k)
	}
	return out
}

// Group returns the paper's evaluation group (1-4, Section V) for an app,
// or 0 if unknown.
func Group(name string) int { return paperGroups[name] }

// GroupApps returns the app names in the given paper group, sorted.
func GroupApps(g int) []string {
	var out []string
	for n, gg := range paperGroups {
		if gg == g {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// paperGroups reproduces the Group column of Table II.
var paperGroups = map[string]int{
	"LPS": 1, "BICG": 1, "SCP": 1,
	"MVT": 2, "jmein": 2, "3DCONV": 2,
	"RAY": 3, "inversek2j": 3, "3MM": 3, "meanfilter": 3, "laplacian": 3,
	"newtonraph": 4, "FWT": 4, "ATAX": 4, "CONS": 4, "srad": 4,
	"GEMM": 4, "blackscholes": 4, "2MM": 4, "SLA": 4,
}

// ErrorTolerant reports whether the app may run AMS per Table II (its error
// tolerance is medium or high, i.e. it is in groups 1-3).
func ErrorTolerant(name string) bool {
	g := paperGroups[name]
	return g >= 1 && g <= 3
}

// ---- shared helpers ---------------------------------------------------

// f32 reads a register lane (see core.Ctx.Row) as float32.
func f32(u uint32) float32 { return math.Float32frombits(u) }

// allocF32 reserves n float32 elements and returns the base address.
func allocF32(im *memimage.Image, n int) uint64 {
	return im.Alloc(uint64(n) * 4)
}

// initSmooth fills n elements starting at base with a smooth low-frequency
// signal: nearest-line value prediction approximates such data well (the
// paper's high-error-tolerance case).
func initSmooth(im *memimage.Image, base uint64, n int, rng *rand.Rand) {
	phase := rng.Float64() * math.Pi
	amp := 1 + rng.Float64()
	for i := 0; i < n; i++ {
		v := amp * (math.Sin(float64(i)/211+phase) + 0.5*math.Cos(float64(i)/57))
		im.WriteF32(base+uint64(4*i), float32(v+2.5))
	}
}

// initNoise fills n elements with white noise in [lo, hi): adjacent lines are
// uncorrelated, so value prediction produces large errors (the paper's
// low-error-tolerance case).
func initNoise(im *memimage.Image, base uint64, n int, lo, hi float64, rng *rand.Rand) {
	for i := 0; i < n; i++ {
		v := lo + rng.Float64()*(hi-lo)
		im.WriteF32(base+uint64(4*i), float32(v))
	}
}

// initMixed fills n elements with a smooth signal plus bounded noise — the
// medium-error-tolerance shape.
func initMixed(im *memimage.Image, base uint64, n int, noise float64, rng *rand.Rand) {
	for i := 0; i < n; i++ {
		v := math.Sin(float64(i)/97) + 1.5 + noise*(rng.Float64()-0.5)
		im.WriteF32(base+uint64(4*i), float32(v))
	}
}

// annotate builds an annotation set covering the given ranges with the
// paper's default 10% coverage cap.
func annotate(ranges ...approx.Range) *approx.Annotations {
	a := approx.NewAnnotations(0.10)
	for _, r := range ranges {
		a.Annotate(r.Base, r.Size)
	}
	return a
}

// sampleF32 reads up to maxSamples evenly spaced float32 values from the n
// elements starting at base; small buffers are read in full.
func sampleF32(im *memimage.Image, base uint64, n, maxSamples int) []float32 {
	step := n / maxSamples
	if step < 1 {
		step = 1
	}
	if step > 1 && step%2 == 0 {
		// An odd stride is coprime with the power-of-two row lengths of the
		// grid kernels, so samples sweep all row offsets instead of aliasing
		// onto one column (which for the stencils would sample only the
		// never-written boundary pixels).
		step++
	}
	out := make([]float32, 0, n/step+1)
	for i := 0; i < n; i += step {
		out = append(out, im.ReadF32(base+uint64(4*i)))
	}
	return out
}

// ceilDiv returns ceil(a/b).
func ceilDiv(a, b int) int { return (a + b - 1) / b }
