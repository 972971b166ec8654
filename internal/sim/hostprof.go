package sim

import (
	"time"

	"lazydram/internal/obs"
)

// hostProfEvery is the host-side phase profiler's sampling stride: every
// hostProfEvery-th core cycle times the core tick, and every
// hostProfEvery-th memory cycle times the partition ticks and the probe/
// publish section that follows it. Sampling keeps the monotonic-clock reads
// off the common path so the profiler stays inside the census overhead
// budget; the per-phase means it reports are unbiased because the stride is
// fixed, not adaptive.
const hostProfEvery = 64

// hostProf accumulates the sampled wall-clock spent in each host-side phase
// of GPU.Step, all of it written on the simulation goroutine.
// Wall times are nondeterministic by nature — they surface in telemetry
// under census.host and are excluded from lazycmp's flattening and the
// determinism gates, exactly like run wall_ms.
type hostProf struct {
	coreNS, coreTicks   uint64
	memNS, memTicks     uint64
	probeNS, probeTicks uint64
}

// sampleCore reports whether the given core cycle is a sampled one.
func (h *hostProf) sampleCore(cycle uint64) bool {
	return h != nil && cycle%hostProfEvery == 0
}

// sampleMem reports whether the given memory cycle is a sampled one.
func (h *hostProf) sampleMem(cycle uint64) bool {
	return h != nil && cycle%hostProfEvery == 0
}

func (h *hostProf) addCore(d time.Duration) { h.coreNS += uint64(d); h.coreTicks++ }
func (h *hostProf) addMem(d time.Duration)  { h.memNS += uint64(d); h.memTicks++ }
func (h *hostProf) addProbe(d time.Duration) {
	h.probeNS += uint64(d)
	h.probeTicks++
}

// phases folds the accumulated samples into the telemetry summary.
func (h *hostProf) phases() *obs.HostPhases {
	if h == nil {
		return nil
	}
	return &obs.HostPhases{
		SampleEvery: hostProfEvery,
		CoreTicks:   h.coreTicks,
		CoreNS:      h.coreNS,
		MemTicks:    h.memTicks,
		MemNS:       h.memNS,
		ProbeTicks:  h.probeTicks,
		ProbeNS:     h.probeNS,
	}
}
