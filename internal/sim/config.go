// Package sim wires the substrates into the full simulated GPU of the
// paper's Table I — 30 SMs, crossbar interconnect, 6 memory partitions each
// with an L2 slice, a lazy memory controller, and a GDDR5 channel — and runs
// kernels through it under a selected scheduling scheme.
package sim

import (
	"math/rand"

	"lazydram/internal/approx"
	"lazydram/internal/cache"
	"lazydram/internal/core"
	"lazydram/internal/dram"
	"lazydram/internal/energy"
	"lazydram/internal/fault"
	"lazydram/internal/icnt"
	"lazydram/internal/mc"
	"lazydram/internal/memimage"
	"lazydram/internal/obs"
)

// Kernel is a GPGPU application the simulator can run. Implementations live
// in internal/workloads.
//
// An application is a sequence of Phases, each a grid of warps launched
// together; a phase only starts after the previous one has fully drained
// (the inter-kernel-launch barrier of real GPU programs, which dependent
// launches like the chained matrix multiplies of 2MM/3MM rely on). Warps
// within one phase must be race-free with respect to each other.
type Kernel interface {
	// Name returns the application's abbreviation (Table II).
	Name() string
	// MemBytes is an upper bound on the global memory the kernel allocates.
	MemBytes() uint64
	// Setup allocates and initializes the kernel's buffers.
	Setup(im *memimage.Image, rng *rand.Rand)
	// Phases returns the number of dependent kernel launches.
	Phases() int
	// NumWarps is the number of warps in the given phase's grid.
	NumWarps(phase int) int
	// Program runs warp warpID of phase, handing its instructions to
	// yield; it must keep the rules of core.Program.
	Program(phase, warpID int, ctx *core.Ctx, yield func(core.Op) bool)
	// Output extracts the result buffer for error measurement. Callers must
	// flush caches first (Simulate does).
	Output(im *memimage.Image) []float32
	// Annotations declares the approximable buffers (nil: nothing may be
	// approximated — the paper's low-error-tolerance case).
	Annotations() *approx.Annotations
}

// Config is the full simulated-GPU configuration (Table I).
type Config struct {
	NumSMs int

	// WarpsPerBlock groups consecutive warps into a thread block (256
	// threads at the default 8); blocks are dispatched round-robin over SMs,
	// as on real hardware. Keeping a block's warps on one SM preserves their
	// spatial locality in time: the block's consecutive-line requests reach
	// the memory controller clustered together rather than skewed across 30
	// drifting cores. Set to 1 for warp-striped dispatch (ablation).
	WarpsPerBlock int

	CoreClockMHz float64
	MemClockMHz  float64

	SM core.Config

	// L2 describes one per-partition slice.
	L2            cache.Config
	L2MSHREntries int
	L2MSHRTargets int
	L2HitLatency  uint64 // core cycles

	MC      mc.Config
	DRAM    dram.Config
	AddrMap dram.AddrMap

	IcntLatency    uint64
	IcntQueueDepth int

	VP approx.VPConfig
	// VPKind selects the value predictor: "nearest" (the paper's VP unit,
	// default), "zero", or "lastvalue".
	VPKind string

	Energy energy.Profile

	// Fault configures the DRAM error model (disabled by default). When
	// enabled, read bursts are corrupted per the configured weak-cell density
	// and bit-error rate before their bytes reach the L2, and the run's
	// telemetry gains a fault block.
	Fault fault.Config

	// MaxCoreCycles aborts runaway simulations.
	MaxCoreCycles uint64

	// Obs selects the observability features for the run (lifecycle tracing,
	// time-series sampling, DRAM command trace). The zero value disables
	// everything and leaves the hot loop untouched.
	Obs obs.Options
}

// DefaultConfig reproduces Table I.
func DefaultConfig() Config {
	return Config{
		NumSMs:        30,
		WarpsPerBlock: 8,
		CoreClockMHz:  1400,
		MemClockMHz:   924,
		SM:            core.DefaultConfig(),
		L2:            cache.Config{SizeBytes: 128 * 1024, Ways: 8},
		L2MSHREntries: 128,
		L2MSHRTargets: 32,
		L2HitLatency:  20,
		MC:            mc.DefaultConfig(),
		DRAM:          dram.DefaultConfig(),
		AddrMap:       dram.DefaultAddrMap(),

		IcntLatency:    8,
		IcntQueueDepth: 32,

		VP:     approx.DefaultVPConfig(),
		VPKind: "nearest",
		Energy: energy.GDDR5(),
		Fault:  fault.DefaultConfig(),

		MaxCoreCycles: 200_000_000,
	}
}

// icntConfig builds the per-direction crossbar configuration.
func (c Config) icntConfig(ports int) icnt.Config {
	return icnt.Config{Ports: ports, LatencyCycles: c.IcntLatency, QueueDepth: c.IcntQueueDepth}
}
