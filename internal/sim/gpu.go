package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"time"

	"lazydram/internal/approx"
	"lazydram/internal/core"
	"lazydram/internal/energy"
	"lazydram/internal/fault"
	"lazydram/internal/icnt"
	"lazydram/internal/mc"
	"lazydram/internal/memimage"
	"lazydram/internal/obs"
	"lazydram/internal/stats"
)

// Result carries everything a run produced.
type Result struct {
	Run    stats.Run
	Output []float32
	// Image is the final memory image, with all dirty cache lines flushed;
	// useful for inspecting buffers beyond Output.
	Image *memimage.Image
	// VPPredictions / VPFallbacks aggregate the value-prediction unit's
	// activity across partitions.
	VPPredictions uint64
	VPFallbacks   uint64
	// Telemetry holds the run's observability digest (nil when Config.Obs is
	// disabled); Trace the raw DRAM command ring for file export; Audit the
	// raw scheduler decision log for JSONL export.
	Telemetry *obs.Telemetry
	Trace     *obs.CmdTrace
	Audit     *obs.AuditLog
	// Digest is the state-digest flight recorder's record stream (nil unless
	// Config.Obs.DigestEvery > 0), for JSONL export and divergence hunts.
	Digest *obs.DigestLog
	// Channels holds one statistics snapshot per memory channel (deep
	// copies, in channel order) — the unmerged channel × bank counter
	// matrix behind Run.Mem's aggregates.
	Channels []stats.Mem
	// EnergyByChannel attributes the run's energy per channel and bank
	// under the configured profile; its totals sum to Run.MemEnergy.
	EnergyByChannel []energy.ChannelEnergy
}

// GPU is one fully wired simulated GPU executing one kernel. Partitions,
// interconnect and clocks persist across the kernel's phases (mirroring the
// L2 staying warm across dependent kernel launches); SMs are re-seeded per
// phase.
type GPU struct {
	cfg    Config
	scheme mc.Scheme
	kern   Kernel
	im     *memimage.Image

	sms        []*core.SM
	partitions []*partition
	reqNet     *icnt.Network
	replyNet   *icnt.Network

	coreCycle uint64
	memCycle  uint64
	memAcc    float64

	// Stepwise-execution state: phase is the kernel phase the next Step will
	// advance, seeded records whether its SMs have been launched yet, and
	// memPerCore is the fixed memory-per-core clock ratio.
	phase      int
	seeded     bool
	memPerCore float64

	insts      uint64
	l1Accesses uint64
	l1Misses   uint64

	// Observability state; col is nil (and tr/sampler with it) when disabled,
	// so the hot loop pays a single nil check per hook. tr is the SM-side
	// tracer, only observed from the serial sections; everything a partition
	// records goes to its private obs shard. met publishes live metrics into
	// the run's registry for concurrent scraping.
	col     *obs.Collector
	tr      *obs.Tracer
	sampler *obs.Sampler
	met     *gpuMetrics
	prev    sampleState
	dig     *obs.DigestLog // flight recorder; nil unless Obs.DigestEvery > 0

	// pool, when non-nil (Config.ShardPartitions), ticks partitions on
	// worker goroutines with a bulk-synchronous barrier per cycle.
	pool *shardPool

	// host is the host-side phase profiler (non-nil only with Obs.Census):
	// sampled wall-clock per Step phase, reported under telemetry
	// census.host.
	host *hostProf
}

// sampleState remembers the cumulative counters at the previous time-series
// sample so windows report deltas.
type sampleState struct {
	insts uint64
	core  uint64
	busy  uint64
	acts  uint64
}

// NewGPU builds a GPU for the kernel under the given scheme; Setup has
// already populated im.
func NewGPU(cfg Config, scheme mc.Scheme, kern Kernel, im *memimage.Image) *GPU {
	g := &GPU{cfg: cfg, scheme: scheme, kern: kern, im: im}
	g.memPerCore = cfg.MemClockMHz / cfg.CoreClockMHz
	annot := kern.Annotations()
	if scheme.AMS == mc.Off {
		annot = nil // nothing is approximable without AMS
	}
	if g.cfg.Fault.Enabled {
		// Injected-error telemetry rides the fault model unconditionally so
		// every fault run can report where its corruption landed.
		g.cfg.Obs.FaultQuality = true
	}
	g.col = obs.NewCollector(g.cfg.Obs)
	nParts := cfg.AddrMap.NumChannels
	// Observability state is sharded per partition unconditionally: the
	// sequential and sharded tick paths then write the exact same per-shard
	// structures, so their merged digests are identical by construction.
	g.col.EnsureShards(nParts)
	if g.col != nil {
		g.tr = g.col.Tracer
		g.sampler = g.col.Sampler
		g.dig = g.col.Digest
		if g.col.Metrics != nil {
			g.met = newGPUMetrics(g.col.Metrics, kern.Name(), scheme.Name(),
				nParts, cfg.DRAM.NumBanks, cfg.Obs.MetricsEvery, cfg.Obs.Census)
		}
	}
	for p := 0; p < nParts; p++ {
		g.partitions = append(g.partitions, newPartition(p, &g.cfg, im, annot, scheme, g.col.Shard(p)))
	}
	g.reqNet = icnt.New(g.cfg.icntConfig(nParts))
	g.replyNet = icnt.New(g.cfg.icntConfig(cfg.NumSMs))
	if cfg.ShardPartitions && nParts > 1 {
		g.pool = newShardPool(g.partitions, cfg.ShardWorkers)
	}
	if g.cfg.Obs.Census {
		g.host = &hostProf{}
	}
	return g
}

// Run executes every phase of the kernel to completion and returns
// aggregated statistics. It is Step in a loop: callers that need lockstep
// control (cmd/lazydiverge) drive Step directly and then call Finish.
func (g *GPU) Run() (*Result, error) {
	defer g.pool.close() // stop the shard workers on every exit path
	for {
		done, err := g.Step()
		if err != nil {
			return nil, err
		}
		if done {
			return g.collect(), nil
		}
	}
}

// Step advances the simulation by exactly one core cycle (seeding the next
// kernel phase lazily, so the first Step of a phase launches its SMs). It
// returns done=true once every phase has finished, after which further Steps
// are no-ops. A non-nil error means the cycle limit was exceeded; the GPU is
// shut down and must not be stepped further.
//
// Two GPUs built from the same kernel/config/seed and stepped in lockstep
// stay cycle-aligned: Step's body is runPhase's former loop body, so the
// clock-crossing (memAcc) and phase-boundary schedule are bit-identical to
// Run's.
func (g *GPU) Step() (done bool, err error) {
	if g.phase >= g.kern.Phases() {
		return true, nil
	}
	if !g.seeded {
		g.seedPhase(g.phase)
		g.seeded = true
	}
	if g.coreCycle >= g.cfg.MaxCoreCycles {
		g.shutdown()
		return false, fmt.Errorf("sim: %s exceeded %d core cycles", g.kern.Name(), g.cfg.MaxCoreCycles)
	}
	if g.host.sampleCore(g.coreCycle) {
		t0 := time.Now()
		g.coreTick()
		g.host.addCore(time.Since(t0))
	} else {
		g.coreTick()
	}
	g.memAcc += g.memPerCore
	if g.memAcc >= 1 {
		g.memAcc--
		timed := g.host.sampleMem(g.memCycle)
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		if g.pool != nil {
			g.pool.memTick(g.memCycle, timed)
		} else {
			for _, p := range g.partitions {
				p.memTick(g.memCycle)
			}
		}
		if timed {
			g.host.addMem(time.Since(t0))
		}
		g.memCycle++
		// Probes below run on this goroutine strictly after the barrier
		// (or the sequential loop), so they read quiesced state only.
		if timed {
			t0 = time.Now()
		}
		if g.sampler != nil {
			g.sampler.Tick(g.memCycle, g.probeSample)
		}
		if g.dig != nil && g.memCycle%g.dig.Every() == 0 {
			g.dig.Record(g.digestRecord())
		}
		if g.met != nil && g.memCycle%g.met.every == 0 {
			g.publishMetrics()
		}
		if timed {
			g.host.addProbe(time.Since(t0))
		}
	}
	g.coreCycle++
	if g.coreCycle%512 == 0 && g.done() {
		g.retireSMs()
		g.phase++
		g.seeded = false
		if g.phase >= g.kern.Phases() {
			return true, nil
		}
	}
	return false, nil
}

// Finish ends a stepwise run: it stops the shard workers and aggregates the
// results. Call it once, after Step has returned done=true.
func (g *GPU) Finish() *Result {
	g.pool.close()
	return g.collect()
}

// Close stops the shard workers without collecting results; for abandoning a
// stepwise run early (a Step error, or a located divergence). Safe to call
// more than once; Run and Finish close the pool themselves.
func (g *GPU) Close() { g.pool.close() }

// MemCycle returns the current memory-clock cycle.
func (g *GPU) MemCycle() uint64 { return g.memCycle }

// CoreCycle returns the current core-clock cycle.
func (g *GPU) CoreCycle() uint64 { return g.coreCycle }

// seedPhase distributes the phase's thread blocks round-robin over fresh SMs
// (L1 caches start cold per launch, as on real hardware).
func (g *GPU) seedPhase(ph int) {
	wpb := g.cfg.WarpsPerBlock
	if wpb < 1 {
		wpb = 1
	}
	warpsPerSM := make([][]int, g.cfg.NumSMs)
	for w := 0; w < g.kern.NumWarps(ph); w++ {
		s := (w / wpb) % g.cfg.NumSMs
		warpsPerSM[s] = append(warpsPerSM[s], w)
	}
	prog := core.Program(func(warpID int, ctx *core.Ctx) iter.Seq[core.Op] {
		return g.kern.Program(ph, warpID, ctx)
	})
	g.sms = g.sms[:0]
	for s := 0; s < g.cfg.NumSMs; s++ {
		g.sms = append(g.sms, core.NewSM(s, g.cfg.SM, prog, warpsPerSM[s]))
	}
}

func (g *GPU) retireSMs() {
	for _, s := range g.sms {
		g.insts += s.Insts()
		ls := s.L1Stats()
		g.l1Accesses += ls.Accesses
		g.l1Misses += ls.Misses
	}
	// Folded SMs must not be counted again by live probes (probeSample,
	// publishMetrics) between phases or at collect time.
	g.sms = g.sms[:0]
}

func (g *GPU) shutdown() {
	for _, s := range g.sms {
		s.Shutdown()
	}
}

func (g *GPU) coreTick() {
	now := g.coreCycle
	// 1. Partitions release due L2-hit replies and push replies to the net.
	// The partition half (draining each hit heap into its own outReplies) is
	// independent per partition, so it shards across the pool; the reply
	// sends touch the shared reply network and stay serial, in partition
	// order — the same order the sequential loop sends in, since a
	// partition's coreTick never reads another partition's state.
	if g.pool != nil {
		g.pool.coreTick(now)
		for _, p := range g.partitions {
			p.sendReply(g.replyNet, now)
		}
	} else {
		for _, p := range g.partitions {
			p.coreTick(now)
			p.sendReply(g.replyNet, now)
		}
	}
	// 2. Reply network delivers to SMs.
	for s, sm := range g.sms {
		if pkt, ok := g.replyNet.Recv(s, now); ok {
			rep := pkt.Payload.(*core.MemReply)
			g.tr.Observe(obs.StageIcntReply, now-rep.SentAt)
			g.tr.Observe(obs.StageTotal, now-rep.Req.IssuedAt)
			sm.HandleReply(rep, now)
		}
	}
	// 3. SMs execute; their sends are routed by address.
	for _, sm := range g.sms {
		sm.Tick(now, g.sendReq(now))
	}
	// 4. Request network delivers to partitions, honouring backpressure.
	for pi, p := range g.partitions {
		pkt, ok := g.reqNet.Peek(pi, now)
		if !ok {
			continue
		}
		req := pkt.Payload.(*core.MemReq)
		if p.acceptReq(req, now) {
			g.reqNet.Recv(pi, now)
			g.tr.Observe(obs.StageIcntReq, now-req.IssuedAt)
		}
	}
}

func (g *GPU) sendReq(now uint64) func(*core.MemReq) bool {
	return func(r *core.MemReq) bool {
		dst := g.cfg.AddrMap.Decode(r.LineAddr).Channel
		return g.reqNet.Send(r.SM, dst, r, now)
	}
}

// probeSample snapshots the time-series quantities for one sampling window
// of `window` memory cycles. Rate-like fields are deltas over the window;
// queue occupancy, DMS delay, and AMS Th_RBL are instantaneous.
//
// Concurrency contract: probeSample (like publishMetrics and collect) runs
// on the simulation goroutine strictly between pool barriers, so every
// per-partition counter it reads is quiesced — the shard workers are parked
// in their task channels and the barrier's WaitGroup gave this goroutine
// happens-before visibility of all their writes. Live /metrics scrapes never
// call into here; they read only the atomic registry values publishMetrics
// stores.
func (g *GPU) probeSample(window uint64) obs.Sample {
	insts := g.insts
	for _, s := range g.sms {
		insts += s.Insts()
	}
	var busy, acts, occ uint64
	delay, th := 0, 0
	for _, p := range g.partitions {
		busy += p.st.DataBusBusy
		acts += p.st.Activations
		occ += uint64(p.ctrl.Pending())
		if d := p.ctrl.Delay(); d > delay {
			delay = d
		}
		if t := p.ctrl.ThRBL(); t > th {
			th = t
		}
	}
	nch := uint64(len(g.partitions))
	s := obs.Sample{
		MemCycle:    g.memCycle,
		CoreCycle:   g.coreCycle,
		QueueOcc:    float64(occ) / float64(nch),
		Activations: acts - g.prev.acts,
		Delay:       delay,
		ThRBL:       th,
	}
	if dc := g.coreCycle - g.prev.core; dc > 0 {
		s.IPC = float64(insts-g.prev.insts) / float64(dc)
	}
	if window > 0 {
		s.BWUtil = float64(busy-g.prev.busy) / float64(window*nch)
	}
	g.prev = sampleState{insts: insts, core: g.coreCycle, busy: busy, acts: acts}
	return s
}

func (g *GPU) done() bool {
	for _, s := range g.sms {
		if !s.Done() {
			return false
		}
	}
	if g.reqNet.Pending() > 0 || g.replyNet.Pending() > 0 {
		return false
	}
	for _, p := range g.partitions {
		if !p.idle() {
			return false
		}
	}
	return true
}

func (g *GPU) collect() *Result {
	// The final machine digest must be taken first: the drains and flushes
	// below mutate bank accounting and L2 dirty state, and the digest should
	// describe the machine as the last Step left it.
	if g.dig != nil {
		g.dig.Finalize(g.MachineDigest())
	}
	res := &Result{}
	r := &res.Run
	r.App = g.kern.Name()
	r.Scheme = g.scheme.Name()
	r.CoreCycles = g.coreCycle
	r.Instructions = g.insts
	r.L1Accesses = g.l1Accesses
	r.L1Misses = g.l1Misses
	for _, p := range g.partitions {
		p.drainStats(g.memCycle)
		res.Channels = append(res.Channels, p.st.Clone())
		r.Mem.Merge(&p.st)
		l2 := p.l2.Stats()
		r.L2Accesses += l2.Accesses
		r.L2Misses += l2.Misses
		switch vp := p.vp.(type) {
		case *approx.VPUnit:
			res.VPPredictions += vp.Predictions
			res.VPFallbacks += vp.Fallbacks
		case *approx.ZeroPredictor:
			res.VPPredictions += vp.Predictions
		case *approx.LastValuePredictor:
			res.VPPredictions += vp.Predictions
			res.VPFallbacks += vp.Fallbacks
		}
		if d := p.ctrl.Delay(); d > r.FinalDelay {
			r.FinalDelay = d
		}
		if t := p.ctrl.ThRBL(); t > r.FinalThRBL {
			r.FinalThRBL = t
		}
		p.flush()
	}
	prof := g.cfg.Energy
	r.RowEnergy = prof.RowEnergyNJ(&r.Mem)
	r.MemEnergy = prof.MemEnergyNJ(&r.Mem, g.memCycle, g.cfg.MemClockMHz*1e6, len(g.partitions))
	res.EnergyByChannel = prof.Attribution(res.Channels, g.memCycle, g.cfg.MemClockMHz*1e6)
	res.Output = g.kern.Output(g.im)
	res.Image = g.im
	if g.col != nil {
		g.sampler.Flush(g.memCycle, g.probeSample)
		res.Telemetry = g.col.Telemetry()
		res.Trace = g.col.MergedTrace()
		res.Audit = g.col.MergedAudit()
		res.Digest = g.col.Digest
		if res.Telemetry != nil && res.Telemetry.Census != nil {
			res.Telemetry.Census.Host = g.host.phases(g.pool)
		}
	}
	if g.cfg.Fault.Enabled {
		fs := g.faultSummary()
		if res.Telemetry == nil {
			res.Telemetry = &obs.Telemetry{}
		}
		res.Telemetry.Fault = fs
	}
	if g.met != nil {
		g.publishMetrics() // final state, after the run has drained
	}
	return res
}

// faultSummary merges the per-channel injector summaries into the run-level
// telemetry block, attaching the injected-error histogram.
func (g *GPU) faultSummary() *obs.FaultSummary {
	var agg fault.Summary
	var cfg fault.Config
	for _, p := range g.partitions {
		if p.inj == nil {
			continue
		}
		cfg = p.inj.Config()
		agg.Merge(p.inj.Summary())
	}
	fs := &obs.FaultSummary{
		Seed:           cfg.Seed,
		BusBER:         cfg.BusBER,
		WeakDensity:    cfg.WeakCellDensity,
		Reads:          agg.Reads,
		CorruptedReads: agg.CorruptedReads,
		ActFlips:       agg.ActFlips,
		RetFlips:       agg.RetFlips,
		BusFlips:       agg.BusFlips,
		TotalFlips:     agg.TotalFlips(),
		WeakRows:       agg.WeakRows,
		WeakCells:      agg.WeakCells,
		Digest:         agg.Digest,
	}
	if g.col != nil {
		fs.Quality = g.col.MergedFaultQuality().Summary()
	}
	return fs
}

// Prepare performs Simulate's setup — fault-seed defaulting, memory image
// construction, deterministic kernel initialization — and returns a GPU ready
// to execute. Callers either Run it, or drive it with Step and then Finish
// (or Close, to abandon it).
func Prepare(kern Kernel, cfg Config, scheme mc.Scheme, seed int64) *GPU {
	if cfg.Fault.Enabled && cfg.Fault.Seed == 0 {
		// Default the fault seed to the run seed so -seed alone reproduces a
		// fault run end to end.
		cfg.Fault.Seed = seed
	}
	im := memimage.New(kern.MemBytes() + 4*memimage.LineSize)
	rng := rand.New(rand.NewSource(seed))
	kern.Setup(im, rng)
	return NewGPU(cfg, scheme, kern, im)
}

// Simulate is the one-call entry point: set up the kernel's memory, run all
// its phases under the scheme, flush caches, and return the results.
func Simulate(kern Kernel, cfg Config, scheme mc.Scheme, seed int64) (*Result, error) {
	return Prepare(kern, cfg, scheme, seed).Run()
}
