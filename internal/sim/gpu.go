package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime"
	"sync/atomic"
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
// L2 staying warm across dependent kernel launches). So do the SMs, built
// by the first phase: each later phase reseeds them with its warps and a
// cold L1, keeping their storage and parked warp-slot coroutines, which are
// released when the last phase ends or the run is abandoned.
type GPU struct {
	cfg    Config
	scheme mc.Scheme
	kern   Kernel
	im     *memimage.Image

	// cores holds every SM, across phases; sms is cores while a phase runs
	// and empty between phases, once retireSMs folded their counters.
	cores      []*core.SM
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

	// pool runs partition ticks (shard: Config.ShardPartitions with more
	// than one worker) and, while smPar is set, the SM phase: each due SM's
	// reply and Advance. It starts on the first Step that needs it and
	// stops with the run.
	pool  *shardPool
	shard bool
	// state is 0 before the first Step, 1 while the run counts in
	// liveRuns, 2 once it has shut down.
	state uint8

	// replies[s] is the reply SM s received this cycle, due the SMs of a
	// parallel window that act this cycle, in SM order (see tickSMs).
	replies []*core.MemReq
	due     []int32
	// smPar selects the pool for the SM phase, smTrial runs the current
	// window of smWindow cycles in the other mode, smNS and smMaxNS sum and
	// bound the window's timed samples, smActing counts its acting SMs,
	// smBase is the last non-trial window's cost, and a trial comes after
	// smWait more windows, smBackoff after the last one (see
	// decideSMPhase). forcePar runs every SM phase
	// on a two-worker pool; only the equivalence tests set it.
	smPar, smTrial    bool
	smNS, smMaxNS     uint64
	smActing          int
	smBase            float64
	smWait, smBackoff int
	forcePar          bool
	parPhases         uint64 // SM phases run on the pool

	// host is the host-side phase profiler (non-nil only with Obs.Census):
	// sampled wall-clock per Step phase, reported under telemetry
	// census.host.
	host *hostProf

	// tickEvery ticks every SM and polls every reply port on every cycle,
	// ignoring the SMs' horizons; only the equivalence test sets it.
	tickEvery bool
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
	g.replies = make([]*core.MemReq, cfg.NumSMs)
	g.due = make([]int32, 0, cfg.NumSMs)
	g.shard = cfg.ShardPartitions && g.shardWorkers() > 1
	if g.cfg.Obs.Census {
		g.host = &hostProf{}
	}
	return g
}

// Run executes every phase of the kernel to completion and returns
// aggregated statistics. It is Step in a loop: callers that need lockstep
// control (cmd/lazydiverge) drive Step directly and then call Finish.
func (g *GPU) Run() (*Result, error) {
	defer g.Close() // stop the pool's helpers and the warps on every exit path
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
	if g.state == 0 {
		g.start()
	}
	if g.coreCycle >= g.cfg.MaxCoreCycles {
		g.shutdown()
		return false, fmt.Errorf("sim: %s exceeded %d core cycles", g.kern.Name(), g.cfg.MaxCoreCycles)
	}
	sample := !g.forcePar && g.coreCycle%smSampleEvery == 0
	var ts time.Time
	if sample {
		ts = time.Now()
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
		if g.shard {
			g.pool.begin(len(g.partitions))
			g.pool.addRange(len(g.partitions))
			g.pool.dispatch(phaseMem, g.memCycle, timed)
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
	if sample {
		d := uint64(time.Since(ts))
		g.smNS += d
		g.smMaxNS = max(g.smMaxNS, d)
	}
	g.coreCycle++
	if g.coreCycle%512 == 0 && g.done() {
		g.retireSMs()
		g.phase++
		g.seeded = false
		if g.phase >= g.kern.Phases() {
			g.shutdown()
			return true, nil
		}
	}
	return false, nil
}

// Finish ends a stepwise run: it stops the pool's helpers and aggregates
// the results. Call it once, after Step has returned done=true.
func (g *GPU) Finish() *Result {
	g.Close()
	return g.collect()
}

// Close stops the pool's helpers and every SM's warp coroutines without
// collecting results; for abandoning a stepwise run early (a Step error, or
// a located divergence). Safe to call more than once; Run and Finish close
// the GPU themselves.
func (g *GPU) Close() { g.shutdown() }

// MemCycle returns the current memory-clock cycle.
func (g *GPU) MemCycle() uint64 { return g.memCycle }

// CoreCycle returns the current core-clock cycle.
func (g *GPU) CoreCycle() uint64 { return g.coreCycle }

// seedPhase distributes the phase's thread blocks round-robin over the SMs:
// built by the first phase, reseeded by every later one. Either way each SM
// starts the phase with a cold L1, as after a kernel launch on real hardware.
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
	if g.cores == nil {
		for s := 0; s < g.cfg.NumSMs; s++ {
			g.cores = append(g.cores, core.NewSM(s, g.cfg.SM, prog, warpsPerSM[s]))
		}
	} else {
		for s, sm := range g.cores {
			sm.Reseed(prog, warpsPerSM[s])
		}
	}
	g.sms = g.cores
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
	g.sms = nil
}

// liveRuns counts the simulations of the process between their first Step
// and their shutdown; the SM phase goes parallel only while it is below
// GOMAXPROCS, so concurrent runs (an exp.Runner sweep, lazydiverge's
// lockstep pair) keep to one core each.
var liveRuns atomic.Int32

// start counts the run in liveRuns and starts the shard pool.
func (g *GPU) start() {
	g.state = 1
	liveRuns.Add(1)
	if g.shard {
		g.pool = newShardPool(g.shardWorkers(), g.runItem)
	}
}

// shardWorkers is the partition pool size: Config.ShardWorkers, 0 picking
// GOMAXPROCS, capped at the partition count.
func (g *GPU) shardWorkers() int {
	w := g.cfg.ShardWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, len(g.partitions)))
}

// shutdown stops the pool's helpers and releases every SM's warp
// coroutines, parked ones included. Safe to call more than once.
func (g *GPU) shutdown() {
	if g.state == 1 {
		g.state = 2
		liveRuns.Add(-1)
	}
	g.pool.close()
	for _, s := range g.cores {
		s.Shutdown()
	}
}

// runItem runs one pool item: SM i's local work, or partition i's tick.
func (g *GPU) runItem(kind phaseKind, i int, now uint64) {
	switch kind {
	case phaseSM:
		g.advanceSM(i, now)
	case phaseMem:
		g.partitions[i].memTick(now)
	case phaseCore:
		g.partitions[i].coreTick(now)
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
	if g.shard {
		g.pool.begin(len(g.partitions))
		g.pool.addRange(len(g.partitions))
		g.pool.dispatch(phaseCore, now, false)
		for _, p := range g.partitions {
			p.sendReply(g.replyNet, now)
		}
	} else {
		for _, p := range g.partitions {
			p.coreTick(now)
			p.sendReply(g.replyNet, now)
		}
	}
	// 2. Reply network delivers to SMs, visiting the ports that hold a
	// packet in SM order; the SM handles the reply in step 3 (advanceSM).
	for s := g.nextReplyPort(0); s >= 0; s = g.nextReplyPort(s + 1) {
		if pkt, ok := g.replyNet.Recv(s, now); ok {
			rep := pkt.Payload.(*core.MemReq)
			g.tr.Observe(obs.StageIcntReply, now-rep.SentAt)
			g.tr.Observe(obs.StageTotal, now-rep.IssuedAt)
			g.replies[s] = rep
		}
	}
	// 3. SMs execute; their sends are routed by address.
	g.tickSMs(now)
	// 4. Request network delivers to partitions, honouring backpressure. An
	// accepted store is complete once the L2 or its MSHR copied its words,
	// so its SM takes the request back; a load travels on as the reply.
	for pi, p := range g.partitions {
		pkt, ok := g.reqNet.Peek(pi, now)
		if !ok {
			continue
		}
		req := pkt.Payload.(*core.MemReq)
		if p.acceptReq(req, now) {
			g.reqNet.Recv(pi, now)
			g.tr.Observe(obs.StageIcntReq, now-req.IssuedAt)
			if !req.Load {
				g.sms[req.SM].Release(req)
			}
		}
	}
}

// advanceSM runs SM s's part of the SM phase: it handles the reply it
// received this cycle, if any, and takes the request back (the load
// transaction ends here), then advances it.
func (g *GPU) advanceSM(s int, now uint64) {
	sm := g.sms[s]
	if rep := g.replies[s]; rep != nil {
		g.replies[s] = nil
		sm.HandleReply(rep, now)
		sm.Release(rep)
	}
	sm.Advance(now)
}

// The SM phase goes parallel window by window, on a measured gain. Every
// smSampleEvery-th Step is timed whole, because the pool's cost does not
// stay in the SM phase: the other sections then miss on the cache lines the
// helpers wrote. A window's cost is the mean of its samples, the largest
// dropped so that one long cycle (a kernel phase's first, a GC assist) does
// not decide it. Now and then a window runs in the other mode as a trial,
// and the run switches when the trial costs smMargin less than the window
// before it. After a lost trial the next comes twice as many windows
// later, up to smMaxBackoff, so a run that gains nothing from the pool pays
// for few trials. The comparison is relative, so it holds on a quiet host
// and a loaded one alike: a warp program's run gains from a second core,
// while an LSU retry's cache lines cost more to move between cores than to
// process.
const (
	smWindow      = 256
	smSampleEvery = 8
	smMaxBackoff  = 64
)

// smMargin is the share a trial window must save to switch modes.
const smMargin = 0.05

// smWorkers is the number of workers the SM phase runs on, also on a larger
// shard pool: two is the only size its gain and its trial constants were
// measured at.
const smWorkers = 2

// smMinActing is the fewest SMs a window must average acting per cycle for
// the pool to be tried. Below it a window's SM work is mostly LSU retries,
// and trials only cost: MVT and ATAX average 12.7 acting SMs, SCP 3.4,
// while GEMM averages 23 and RAY 17.
const smMinActing = 16

// tickSMs runs step 3 of coreTick. An SM acts only when it can: on its
// horizon, on a reply, or to send its outbox head; any other Tick would be
// a no-op. The sends are the only part of a Tick that touches shared state,
// so they run serially and in SM order. In a serial window each acting SM
// then advances at once, a whole Tick as before; in a parallel window it
// joins the SM phase, which runs on the pool once every SM has sent.
func (g *GPU) tickSMs(now uint64) {
	if now%smWindow == 0 && now > 0 && !g.forcePar {
		g.decideSMPhase()
	}
	par := g.smPar != g.smTrial || g.forcePar
	send := g.sendReq(now)
	g.due = g.due[:0]
	for s, sm := range g.sms {
		if g.tickEvery || g.replies[s] != nil || sm.Next() <= now || g.sendable(sm.OutboxHead()) {
			g.smActing++
			sm.Send(send)
			if par {
				g.due = append(g.due, int32(s))
			} else {
				g.advanceSM(s, now)
			}
		}
	}
	switch n := len(g.due); {
	case n > 1 || n == 1 && g.forcePar:
		if g.pool == nil {
			g.pool = newShardPool(smWorkers, g.runItem)
		}
		g.pool.begin(smWorkers)
		for _, s := range g.due {
			g.pool.add(int(s))
		}
		g.pool.dispatch(phaseSM, now, false)
		g.parPhases++
	case n == 1:
		g.advanceSM(int(g.due[0]), now)
	}
}

// decideSMPhase ends a window: it settles a trial, or records the window's
// cost as the reference for the next trial and schedules one when due.
func (g *GPU) decideSMPhase() {
	cost := float64(g.smNS-g.smMaxNS) / float64(smWindow/smSampleEvery-1)
	acting := g.smActing
	g.smNS, g.smMaxNS, g.smActing = 0, 0, 0
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 || int(liveRuns.Load()) >= procs {
		g.smPar, g.smTrial = false, false
		return
	}
	if g.smTrial {
		g.smTrial = false
		if cost < (1-smMargin)*g.smBase {
			g.smPar = !g.smPar
			g.smBackoff = 1
		} else {
			g.smBackoff = min(2*g.smBackoff+1, smMaxBackoff)
		}
		g.smWait = g.smBackoff
		return
	}
	g.smBase = cost
	if g.smWait--; g.smWait <= 0 && (g.smPar || acting >= smMinActing*smWindow) {
		g.smTrial = true
	}
}

// nextReplyPort returns the first reply port at or above s holding a
// packet, or -1; under tickEvery, every port in turn.
func (g *GPU) nextReplyPort(s int) int {
	if !g.tickEvery {
		return g.replyNet.NextBusy(s)
	}
	if s < len(g.sms) {
		return s
	}
	return -1
}

// sendable reports whether an SM's send of r would act: route it on its
// first attempt, or enter the request network.
func (g *GPU) sendable(r *core.MemReq) bool {
	return r != nil && (!r.Routed || g.reqNet.CanSend(r.Coord.Channel))
}

// sendReq returns the SMs' send function for cycle now. A transaction's
// line is decoded on its first attempt only; backpressured retries and the
// partition's acceptReq reuse the coordinate.
func (g *GPU) sendReq(now uint64) func(*core.MemReq) bool {
	return func(r *core.MemReq) bool {
		if !r.Routed {
			r.Coord, r.Routed = g.cfg.AddrMap.Decode(r.LineAddr), true
		}
		return g.reqNet.Send(r.SM, r.Coord.Channel, r, now)
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
			res.Telemetry.Census.Host = g.host.phases(g.shardPool())
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

// shardPool returns the pool when it ticks partitions, else nil.
func (g *GPU) shardPool() *shardPool {
	if !g.shard {
		return nil
	}
	return g.pool
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
