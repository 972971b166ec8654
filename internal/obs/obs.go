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

// Merge folds other's histograms into t. Nil-safe on both sides.
func (t *Tracer) Merge(other *Tracer) {
	if t == nil || other == nil {
		return
	}
	for s := Stage(0); s < numStages; s++ {
		t.hists[s].Merge(&other.hists[s])
	}
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
	// MetricsEvery is the publication interval for Metrics in memory cycles
	// (0 picks a default).
	MetricsEvery uint64
	// AuditCapacity bounds the scheduler decision-audit ring (0 disables the
	// decision log). Per-reason counters stay exact regardless of ring wrap.
	AuditCapacity int
	// Quality enables approximation-quality telemetry: every AMS-dropped
	// line's predicted bytes are scored against the functional ground truth.
	Quality bool
	// QualityWorst bounds the worst-offenders list (0 picks a default).
	QualityWorst int
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
// Partition-local state (DRAM command trace, scheduler audit, quality logs,
// the memory-side latency histograms) lives in per-partition Shards created
// by EnsureShards, so that memory partitions can tick concurrently without
// any cross-partition synchronization: each shard has exactly one writer.
// The serializable views (Telemetry, MergedAudit, MergedTrace, ...) fold the
// shards back together in channel order with stable cycle sorting, which is
// the same order the sequential tick loop produces — so sharded and
// unsharded execution emit byte-identical digests by construction.
type Collector struct {
	// Tracer records the SM/interconnect-side lifecycle stages, which are
	// only observed from the simulator's serial sections.
	Tracer  *Tracer
	Sampler *Sampler
	Metrics *Registry
	// Digest is the state-digest flight recorder (nil unless DigestEvery is
	// set). It is machine-level, not sharded: records are built and appended
	// only from the simulation goroutine at barrier-quiesced points.
	Digest *DigestLog

	opts   Options
	shards []*Shard
}

// Shard is the slice of observability state owned by exactly one memory
// partition. During a simulation only that partition's tick path writes to
// it (possibly from a worker goroutine); merged views are built after the
// run, or between cycles from the main goroutine once the per-cycle barrier
// has quiesced every worker.
type Shard struct {
	Tracer *Tracer
	Trace  *CmdTrace
	Audit  *AuditLog
	// Quality scores AMS-dropped lines; FaultQuality scores fault-corrupted
	// lines (corrupted vs pristine bytes), kept separate so the two error
	// sources stay distinguishable.
	Quality      *QualityLog
	FaultQuality *QualityLog
	// Census is the partition's cycle-census state (nil unless
	// Options.Census).
	Census *Census
}

// NewCollector builds a collector for the options, or nil when everything is
// disabled. Call EnsureShards before handing shards to partitions.
func NewCollector(o Options) *Collector {
	if !o.Enabled() {
		return nil
	}
	c := &Collector{opts: o}
	if o.Latency {
		c.Tracer = &Tracer{}
	}
	if o.SampleEvery > 0 {
		c.Sampler = NewSampler(o.SampleEvery)
	}
	if o.DigestEvery > 0 {
		c.Digest = NewDigestLog(o.DigestEvery, o.DigestCapacity)
	}
	c.Metrics = o.Metrics
	return c
}

// EnsureShards creates the n per-partition shards (idempotent for the same
// n). Bounded capacities (trace ring, audit ring) are divided evenly across
// shards so total retention matches the configured budget regardless of the
// partition count. Nil-safe.
func (c *Collector) EnsureShards(n int) {
	if c == nil || len(c.shards) == n {
		return
	}
	if n <= 0 {
		panic("obs: shard count must be positive")
	}
	div := func(total int) int {
		per := total / n
		if per < 1 {
			per = 1
		}
		return per
	}
	c.shards = make([]*Shard, n)
	for i := range c.shards {
		s := &Shard{}
		if c.opts.Latency {
			s.Tracer = &Tracer{}
		}
		if c.opts.TraceCapacity > 0 {
			s.Trace = NewCmdTrace(div(c.opts.TraceCapacity))
		}
		if c.opts.AuditCapacity > 0 {
			s.Audit = NewAuditLog(div(c.opts.AuditCapacity))
		}
		if c.opts.Quality {
			s.Quality = NewQualityLog(c.opts.QualityWorst)
		}
		if c.opts.FaultQuality {
			s.FaultQuality = NewQualityLog(c.opts.QualityWorst)
		}
		if c.opts.Census {
			s.Census = NewCensus()
		}
		c.shards[i] = s
	}
}

// Shard returns partition i's shard; EnsureShards must have been called
// with a count > i. Nil-safe (returns nil, and a nil *Shard hands out nil
// feature pointers via its nil-safe accessors below).
func (c *Collector) Shard(i int) *Shard {
	if c == nil || i >= len(c.shards) {
		return nil
	}
	return c.shards[i]
}

// Nil-safe shard accessors, so a disabled collector (nil shard) threads nil
// feature pointers exactly like the pre-shard collector did.

// ShardTracer returns the shard's tracer (nil-safe).
func (s *Shard) ShardTracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.Tracer
}

// ShardTrace returns the shard's DRAM command ring (nil-safe).
func (s *Shard) ShardTrace() *CmdTrace {
	if s == nil {
		return nil
	}
	return s.Trace
}

// ShardAudit returns the shard's decision log (nil-safe).
func (s *Shard) ShardAudit() *AuditLog {
	if s == nil {
		return nil
	}
	return s.Audit
}

// ShardQuality returns the shard's AMS quality log (nil-safe).
func (s *Shard) ShardQuality() *QualityLog {
	if s == nil {
		return nil
	}
	return s.Quality
}

// ShardFaultQuality returns the shard's fault quality log (nil-safe).
func (s *Shard) ShardFaultQuality() *QualityLog {
	if s == nil {
		return nil
	}
	return s.FaultQuality
}

// ShardCensus returns the shard's cycle census (nil-safe).
func (s *Shard) ShardCensus() *Census {
	if s == nil {
		return nil
	}
	return s.Census
}

// MergedTracer folds the SM-side tracer and every shard's memory-side
// tracer into one fresh Tracer (nil when lifecycle tracing is off).
func (c *Collector) MergedTracer() *Tracer {
	if c == nil || !c.opts.Latency {
		return nil
	}
	out := &Tracer{}
	out.Merge(c.Tracer)
	for _, s := range c.shards {
		out.Merge(s.Tracer)
	}
	return out
}

// MergedTrace folds the per-shard DRAM command rings into one chronological
// trace (nil when tracing is off). See MergeCmdTraces for the ordering
// contract.
func (c *Collector) MergedTrace() *CmdTrace {
	if c == nil || c.opts.TraceCapacity == 0 {
		return nil
	}
	traces := make([]*CmdTrace, len(c.shards))
	for i, s := range c.shards {
		traces[i] = s.Trace
	}
	return MergeCmdTraces(traces...)
}

// MergedAudit folds the per-shard decision logs into one chronological log
// (nil when the audit is off). See MergeAuditLogs for the ordering contract.
func (c *Collector) MergedAudit() *AuditLog {
	if c == nil || c.opts.AuditCapacity == 0 {
		return nil
	}
	logs := make([]*AuditLog, len(c.shards))
	for i, s := range c.shards {
		logs[i] = s.Audit
	}
	return MergeAuditLogs(logs...)
}

// MergedQuality folds the per-shard AMS quality logs (nil when off).
func (c *Collector) MergedQuality() *QualityLog {
	if c == nil || !c.opts.Quality {
		return nil
	}
	out := NewQualityLog(c.opts.QualityWorst)
	for _, s := range c.shards {
		out.Merge(s.Quality)
	}
	return out
}

// MergedFaultQuality folds the per-shard fault quality logs (nil when off).
func (c *Collector) MergedFaultQuality() *QualityLog {
	if c == nil || !c.opts.FaultQuality {
		return nil
	}
	out := NewQualityLog(c.opts.QualityWorst)
	for _, s := range c.shards {
		out.Merge(s.FaultQuality)
	}
	return out
}

// MergedCensus folds the per-shard censuses elementwise into one fresh
// Census (nil when the census is off).
func (c *Collector) MergedCensus() *Census {
	if c == nil || !c.opts.Census {
		return nil
	}
	out := NewCensus()
	for _, s := range c.shards {
		out.Merge(s.Census)
	}
	return out
}

// CensusEnabled reports whether the cycle census is collecting.
func (c *Collector) CensusEnabled() bool { return c != nil && c.opts.Census }

// AuditCount sums one reason's exact counter across shards. Callers must
// only read between cycles (barrier-quiesced state); see the package note on
// shards.
func (c *Collector) AuditCount(r Reason) uint64 {
	if c == nil {
		return 0
	}
	var n uint64
	for _, s := range c.shards {
		n += s.Audit.Count(r)
	}
	return n
}

// AuditEnabled reports whether the decision audit is collecting.
func (c *Collector) AuditEnabled() bool { return c != nil && c.opts.AuditCapacity > 0 }

// QualityEnabled reports whether AMS quality scoring is collecting.
func (c *Collector) QualityEnabled() bool { return c != nil && c.opts.Quality }

// QualityCounters sums the live quality statistics across shards: scored
// lines, scored words, the running mean relative error, and the maximum
// relative error. Barrier-quiesced reads only, like AuditCount.
func (c *Collector) QualityCounters() (lines, words uint64, meanRel, maxRel float64) {
	if c == nil {
		return 0, 0, 0, 0
	}
	var relSum float64
	for _, s := range c.shards {
		q := s.Quality
		if q == nil {
			continue
		}
		lines += q.Lines()
		words += q.Words()
		relSum += q.MeanRel() * float64(q.Words())
		if m := q.MaxRel(); m > maxRel {
			maxRel = m
		}
	}
	if words > 0 {
		meanRel = relSum / float64(words)
	}
	return lines, words, meanRel, maxRel
}

// Telemetry snapshots the collector into its serializable form (nil for a
// nil collector), merging the per-partition shards deterministically.
func (c *Collector) Telemetry() *Telemetry {
	if c == nil {
		return nil
	}
	t := &Telemetry{Stages: c.MergedTracer().Stages()}
	if c.Sampler != nil {
		t.SampleEvery = c.Sampler.Every()
		t.Series = c.Sampler.Samples()
	}
	if tr := c.MergedTrace(); tr != nil {
		t.TraceCmds = tr.Total()
		t.TraceDropped = tr.Dropped()
	}
	t.Audit = c.MergedAudit().Summary()
	t.Quality = c.MergedQuality().Summary()
	t.Digest = c.Digest.Summary()
	if c.opts.Census {
		sum := c.MergedCensus().Summary()
		for i, s := range c.shards {
			sum.Channels = append(sum.Channels, s.Census.ChannelSummary(i))
		}
		t.Census = sum
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
