// Package obs is the simulator's observability layer: request-lifecycle
// latency histograms, an interval sampler that turns the dynamic schemes'
// settling behaviour into plottable time series, and a bounded DRAM command
// trace with Chrome trace_event and JSONL exporters.
//
// Everything is opt-in and nil-safe: a disabled collector hands out nil
// *Tracer / *Sampler / *CmdTrace pointers whose methods are no-ops behind a
// single nil check, so the simulation hot loop pays (almost) nothing when
// observability is off. The repository's BenchmarkTelemetryOff/On pair
// quantifies the overhead.
//
// The package depends only on the standard library and is imported by the
// model packages (core, mc, dram, sim); it must never import them back.
package obs

// Stage identifies one segment of a memory request's lifecycle. Stages on
// the SM side of the clock-domain crossing are measured in core cycles,
// stages inside the memory partition in memory cycles; StageSummary.Clock
// records which.
type Stage uint8

// Lifecycle stages.
const (
	// StageIcntReq: SM issue (transaction enters the SM outbox) to memory
	// partition acceptance — outbox wait + request crossbar + backpressure.
	// Core cycles.
	StageIcntReq Stage = iota
	// StageL2Hit: load transactions served by the partition's L2 slice
	// (fixed hit latency; the count is the interesting part). Core cycles.
	StageL2Hit
	// StageMCQueue: memory-controller enqueue to DRAM column issue — time
	// spent in the pending queue, including any DMS-imposed aging. Memory
	// cycles.
	StageMCQueue
	// StageDRAM: DRAM column issue to data-burst completion. Memory cycles.
	StageDRAM
	// StageVPDrop: memory-controller enqueue to AMS drop for value-predicted
	// requests. Memory cycles.
	StageVPDrop
	// StageIcntReply: partition reply send to SM delivery over the reply
	// crossbar. Core cycles.
	StageIcntReply
	// StageTotal: SM issue to reply delivery at the SM, end to end (L2 hits
	// and misses alike). Core cycles.
	StageTotal

	numStages
)

// stageMeta names each stage and its clock domain for reports.
var stageMeta = [numStages]struct{ name, clock string }{
	StageIcntReq:   {"icnt.req", "core"},
	StageL2Hit:     {"l2.hit", "core"},
	StageMCQueue:   {"mc.queue", "mem"},
	StageDRAM:      {"dram.service", "mem"},
	StageVPDrop:    {"mc.vpdrop", "mem"},
	StageIcntReply: {"icnt.reply", "core"},
	StageTotal:     {"total", "core"},
}

// String returns the stage's report name.
func (s Stage) String() string { return stageMeta[s].name }

// Clock returns "core" or "mem", the cycle domain the stage is measured in.
func (s Stage) Clock() string { return stageMeta[s].clock }

// Tracer aggregates per-stage latency histograms. The zero value is ready to
// use; a nil *Tracer discards every observation.
type Tracer struct {
	hists [numStages]Histogram
}

// Observe records one latency sample for the stage. It is nil-safe and
// allocation-free.
func (t *Tracer) Observe(s Stage, cycles uint64) {
	if t == nil {
		return
	}
	t.hists[s].Observe(cycles)
}

// Hist returns the histogram backing the stage (nil for a nil tracer).
func (t *Tracer) Hist(s Stage) *Histogram {
	if t == nil {
		return nil
	}
	return &t.hists[s]
}

// Stages summarizes every stage that recorded at least one sample.
func (t *Tracer) Stages() []StageSummary {
	if t == nil {
		return nil
	}
	var out []StageSummary
	for s := Stage(0); s < numStages; s++ {
		h := &t.hists[s]
		if h.Count() == 0 {
			continue
		}
		out = append(out, StageSummary{
			Stage: s.String(),
			Clock: s.Clock(),
			Count: h.Count(),
			Sum:   h.Sum(),
			Mean:  h.Mean(),
			P50:   h.Percentile(50),
			P90:   h.Percentile(90),
			P99:   h.Percentile(99),
			Max:   h.Max(),
		})
	}
	return out
}

// StageSummary is the serializable digest of one stage's latency histogram.
type StageSummary struct {
	Stage string  `json:"stage" gate:"key"`
	Clock string  `json:"clock"`
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P90   uint64  `json:"p90"`
	P99   uint64  `json:"p99"`
	Max   uint64  `json:"max"`
}

// Options selects which observability features a run collects. The zero
// value disables everything.
type Options struct {
	// Latency enables the request-lifecycle stage histograms.
	Latency bool
	// SampleEvery enables the time-series sampler with the given interval in
	// memory cycles (0 disables).
	SampleEvery uint64
	// TraceCapacity bounds the DRAM command ring buffer (0 disables the
	// trace). When the buffer wraps, the oldest commands are overwritten.
	TraceCapacity int
	// Metrics, when non-nil, receives live run metrics (cycle counts, IPC,
	// per-bank command counters, energy estimates) for concurrent scraping
	// via the registry's Prometheus/expvar handlers.
	Metrics *Registry
	// AuditCapacity bounds the scheduler decision-audit ring (0 disables the
	// decision log). Per-reason counters stay exact regardless of ring wrap.
	AuditCapacity int
	// Quality enables approximation-quality telemetry: every AMS-dropped
	// line's predicted bytes are scored against the functional ground truth.
	Quality bool
	// FaultQuality enables injected-fault error telemetry: every
	// fault-corrupted line is scored against its pristine bytes in a second
	// QualityLog, kept separate from the AMS-drop log so the two error
	// sources stay distinguishable.
	FaultQuality bool
	// DigestEvery enables the state-digest flight recorder with the given
	// sampling interval in memory cycles (0 disables). Enabling it also turns
	// on the partitions' rolling traffic digests, so fill/write-back data
	// divergence stays visible between samples.
	DigestEvery uint64
	// DigestCapacity bounds the digest record ring (0 picks
	// DefaultDigestCapacity). When the ring wraps, the oldest records are
	// dropped and counted; the chain summary stays exact regardless.
	DigestCapacity int
	// Census enables the cycle census and latency-provenance layer: exact
	// per-request stall-cause attribution, bank state residency, and the
	// partition-cycle / next-event-gap census (see census.go).
	Census bool
}

// Enabled reports whether any feature is on.
func (o Options) Enabled() bool {
	return o.Latency || o.SampleEvery > 0 || o.TraceCapacity > 0 ||
		o.Metrics != nil || o.AuditCapacity > 0 || o.Quality || o.FaultQuality ||
		o.DigestEvery > 0 || o.Census
}

// Collector owns the per-run observability state. A nil *Collector (the
// disabled case) is valid everywhere.
//
// Everything here is written on the simulation goroutine: the memory
// partitions tick in order 0..N-1 on it, so one ring, one log and one
// tracer record exactly the order of events the machine produced. Only the
// census is kept per channel, because its summary reports each channel.
type Collector struct {
	// Tracer records every lifecycle stage, SM side and partition side
	// alike; a histogram's counts add in any order.
	Tracer  *Tracer
	Sampler *Sampler
	Metrics *Registry
	// Trace is the DRAM command ring and Audit the scheduler decision log,
	// each at its full configured capacity.
	Trace *CmdTrace
	Audit *AuditLog
	// Quality scores AMS-dropped lines; FaultQuality scores fault-corrupted
	// lines (corrupted vs pristine bytes), kept separate so the two error
	// sources stay distinguishable.
	Quality      *QualityLog
	FaultQuality *QualityLog
	// Digest is the state-digest flight recorder (nil unless DigestEvery is
	// set).
	Digest *DigestLog

	perChannel []*Census
}

// NewCollector builds a collector for the options and a machine of the
// given number of memory channels, or nil when everything is disabled.
func NewCollector(o Options, channels int) *Collector {
	if !o.Enabled() {
		return nil
	}
	c := &Collector{Metrics: o.Metrics}
	if o.Latency {
		c.Tracer = &Tracer{}
	}
	if o.SampleEvery > 0 {
		c.Sampler = NewSampler(o.SampleEvery)
	}
	if o.TraceCapacity > 0 {
		c.Trace = NewCmdTrace(o.TraceCapacity)
	}
	if o.AuditCapacity > 0 {
		c.Audit = NewAuditLog(o.AuditCapacity)
	}
	if o.Quality {
		c.Quality = NewQualityLog(worstOffenders)
	}
	if o.FaultQuality {
		c.FaultQuality = NewQualityLog(worstOffenders)
	}
	if o.DigestEvery > 0 {
		c.Digest = NewDigestLog(o.DigestEvery, o.DigestCapacity)
	}
	if o.Census {
		for range channels {
			c.perChannel = append(c.perChannel, NewCensus())
		}
	}
	return c
}

// Census returns channel i's cycle census (nil when the census is off or
// the collector is nil).
func (c *Collector) Census(i int) *Census {
	if c == nil || i >= len(c.perChannel) {
		return nil
	}
	return c.perChannel[i]
}

// Telemetry snapshots the collector into its serializable form (nil for a
// nil collector).
func (c *Collector) Telemetry() *Telemetry {
	if c == nil {
		return nil
	}
	t := &Telemetry{Stages: c.Tracer.Stages()}
	if c.Sampler != nil {
		t.SampleEvery = c.Sampler.Every()
		t.Series = c.Sampler.Samples()
	}
	t.TraceCmds = c.Trace.Total()
	t.TraceDropped = c.Trace.Dropped()
	t.Audit = c.Audit.Summary()
	t.Quality = c.Quality.Summary()
	t.Digest = c.Digest.Summary()
	if len(c.perChannel) > 0 {
		// The machine-level census folds the channels elementwise.
		merged := NewCensus()
		for _, cen := range c.perChannel {
			merged.Merge(cen)
		}
		t.Census = merged.Summary()
		for i, cen := range c.perChannel {
			t.Census.Channels = append(t.Census.Channels, cen.ChannelSummary(i))
		}
	}
	return t
}

// Telemetry is the machine-readable digest of one run's observability data,
// attached to sim.Result and emitted by lazysim -json.
type Telemetry struct {
	// Stages holds per-lifecycle-stage latency percentiles.
	Stages []StageSummary `json:"stages,omitempty"`
	// SampleEvery is the sampling interval in memory cycles; Series the
	// collected time series.
	SampleEvery uint64   `json:"sample_every,omitempty"`
	Series      []Sample `json:"series,omitempty"`
	// TraceCmds counts DRAM commands offered to the trace ring;
	// TraceDropped how many were overwritten after the ring wrapped.
	TraceCmds    uint64 `json:"trace_cmds,omitempty"`
	TraceDropped uint64 `json:"trace_dropped,omitempty"`
	// Audit digests the scheduler decision log; Quality the approximation
	// error telemetry. Both are nil when the feature was off.
	Audit   *AuditSummary   `json:"audit,omitempty"`
	Quality *QualitySummary `json:"quality,omitempty"`
	// Fault digests the fault-injection run: per-mode flip counts, weak-cell
	// census, the determinism digest, and the injected-error histogram. Nil
	// when the fault model was off.
	Fault *FaultSummary `json:"fault,omitempty"`
	// Digest is the state-digest chain summary (nil unless DigestEvery was
	// set): interval count plus the final and chained machine digests, the
	// run's exact bit-identity key.
	Digest *DigestSummary `json:"digest,omitempty"`
	// Census is the cycle census and latency-provenance digest (nil unless
	// the census was on): the stall-cause decomposition, bank residency,
	// skippable-cycle fraction, and next-event-gap histogram.
	Census *CensusSummary `json:"census,omitempty"`
}

// FaultSummary is the serializable digest of a fault-injection run. It
// mirrors the fault package's per-channel summaries (merged across channels
// by sim) without obs importing it; Quality scores each corrupted line's
// bytes against the pristine line.
type FaultSummary struct {
	Seed        int64   `json:"seed"`
	BusBER      float64 `json:"bus_ber"`
	WeakDensity float64 `json:"weak_density"`

	Reads          uint64 `json:"reads"`
	CorruptedReads uint64 `json:"corrupted_reads"`
	ActFlips       uint64 `json:"act_flips"`
	RetFlips       uint64 `json:"ret_flips"`
	BusFlips       uint64 `json:"bus_flips"`
	TotalFlips     uint64 `json:"total_flips"`
	WeakRows       uint64 `json:"weak_rows"`
	WeakCells      uint64 `json:"weak_cells"`
	// Digest is an order-sensitive hash of every injected (location, mode)
	// flip; two runs with the same fault seed must agree on it.
	Digest uint64 `json:"digest"`

	Quality *QualitySummary `json:"quality,omitempty"`
}
