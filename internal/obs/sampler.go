package obs

// Sample is one point of the per-run time series: a snapshot of the
// quantities the paper's dynamic schemes modulate, taken every SampleEvery
// memory cycles. Rate-like fields (IPC, BWUtil, Activations) are measured
// over the window since the previous sample, so the series shows the
// settling behaviour rather than a long-run average.
type Sample struct {
	// MemCycle / CoreCycle are the cycle counts at snapshot time.
	MemCycle  uint64 `json:"mem_cycle" gate:"key"`
	CoreCycle uint64 `json:"core_cycle"`
	// IPC is instructions per core cycle over the window.
	IPC float64 `json:"ipc"`
	// BWUtil is the per-channel data-bus utilization over the window.
	BWUtil float64 `json:"bwutil"`
	// QueueOcc is the instantaneous mean pending-queue occupancy per channel.
	QueueOcc float64 `json:"queue_occ"`
	// Activations counts row activations in the window (all channels).
	Activations uint64 `json:"activations"`
	// Delay is the largest in-force DMS delay across channels, ThRBL the
	// largest in-force AMS threshold.
	Delay int `json:"delay"`
	ThRBL int `json:"th_rbl"`
}

// Sampler collects interval snapshots. A nil *Sampler discards everything.
type Sampler struct {
	every   uint64
	last    uint64
	samples []Sample
}

// NewSampler creates a sampler with the given interval in memory cycles;
// every must be positive.
func NewSampler(every uint64) *Sampler {
	if every == 0 {
		panic("obs: sampler interval must be positive")
	}
	return &Sampler{every: every}
}

// Every returns the sampling interval.
func (s *Sampler) Every() uint64 {
	if s == nil {
		return 0
	}
	return s.every
}

// Tick advances the sampler to the given cycle count (the number of memory
// cycles completed so far) and, when a full interval elapsed, records the
// sample produced by probe. probe receives the window length in memory
// cycles. Call once per memory cycle; nil-safe.
func (s *Sampler) Tick(cycle uint64, probe func(window uint64) Sample) {
	if s == nil || cycle-s.last < s.every {
		return
	}
	s.record(cycle, probe)
}

// Flush records a final sample for the partial window between the last
// sample and cycle, if any cycles elapsed. Call once at end of run;
// nil-safe.
func (s *Sampler) Flush(cycle uint64, probe func(window uint64) Sample) {
	if s == nil || cycle <= s.last {
		return
	}
	s.record(cycle, probe)
}

func (s *Sampler) record(cycle uint64, probe func(window uint64) Sample) {
	s.samples = append(s.samples, probe(cycle-s.last))
	s.last = cycle
}

// Samples returns the collected series (nil-safe).
func (s *Sampler) Samples() []Sample {
	if s == nil {
		return nil
	}
	return s.samples
}
