package sim

import (
	"time"

	"lazydram/internal/obs"
)

// hostProfEvery is the host-side phase profiler's sampling stride: every
// hostProfEvery-th core cycle times the core tick, and every
// hostProfEvery-th memory cycle times the memory dispatch and the probe/
// publish section that follows it. Sampling keeps the monotonic-clock reads
// off the common path so the profiler stays inside the census overhead
// budget; the per-phase means it reports are unbiased because the stride is
// fixed, not adaptive.
const hostProfEvery = 64

// hostProf accumulates the sampled wall-clock spent in each host-side phase
// of GPU.Step. Everything here is written on the simulation goroutine; the
// per-worker busy counters live in shardPool and are owner-written by each
// worker inside a timed dispatch, before it reports its items finished, so
// the barrier that ends the dispatch gives this goroutine happens-before
// visibility without locks.
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

// phases folds the accumulated samples into the telemetry summary. pool is
// nil unless partitions are sharded; then the per-worker section is
// omitted. A worker's barrier time is the sampled dispatch wall-clock not
// covered by its own busy time: on a timed dispatch every worker is timed,
// so memNS − busy is the time that worker spent waiting for its first item
// or for the last one to finish.
func (h *hostProf) phases(pool *shardPool) *obs.HostPhases {
	if h == nil {
		return nil
	}
	hp := &obs.HostPhases{
		SampleEvery: hostProfEvery,
		CoreTicks:   h.coreTicks,
		CoreNS:      h.coreNS,
		MemTicks:    h.memTicks,
		MemNS:       h.memNS,
		ProbeTicks:  h.probeTicks,
		ProbeNS:     h.probeNS,
	}
	if pool != nil {
		for w := 0; w < pool.workers; w++ {
			busy := pool.slots[w].busyNS
			wp := obs.WorkerPhase{Worker: w, Dispatches: pool.timedDispatches, BusyNS: busy}
			if h.memNS > busy {
				wp.BarrierNS = h.memNS - busy
			}
			if h.memNS > 0 {
				wp.BusyFrac = float64(busy) / float64(h.memNS)
			}
			hp.Workers = append(hp.Workers, wp)
		}
	}
	return hp
}
