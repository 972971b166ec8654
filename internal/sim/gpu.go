package sim

import (
	"fmt"
	"time"

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
	// useful for inspecting buffers beyond Output. It is a fork of the
	// run's input image: it shares every page the run did not write with
	// the input (and with other runs of it), and keeps the input alive.
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
	// warpsPerSM[s] lists the warp IDs SM s runs in the current phase,
	// refilled in place by each phase.
	cores      []*core.SM
	sms        []*core.SM
	warpsPerSM [][]int
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
	// so the hot loop pays a single nil check per hook. tr is the lifecycle
	// tracer the SM side shares with the partitions; both observe it on the
	// simulation goroutine only. met publishes live metrics into the run's
	// registry for concurrent scraping.
	col     *obs.Collector
	tr      *obs.Tracer
	sampler *obs.Sampler
	met     *gpuMetrics
	prev    sampleState
	dig     *obs.DigestLog // flight recorder; nil unless Obs.DigestEvery > 0
	// dnodes is the digest node table (kids before parents, "machine"
	// last), built on first use for dnodesSMs resident SMs.
	dnodes    []*digestNode
	dnodesSMs int

	// replies[s] is the reply SM s received this cycle, handled when SM s
	// advances (see tickSMs).
	replies []*core.MemReq

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
	nParts := cfg.AddrMap.NumChannels
	g.col = obs.NewCollector(g.cfg.Obs, nParts)
	if g.col != nil {
		g.tr = g.col.Tracer
		g.sampler = g.col.Sampler
		g.dig = g.col.Digest
		if g.col.Metrics != nil {
			g.met = newGPUMetrics(g.col.Metrics, kern.Name(), scheme.Name(),
				nParts, cfg.DRAM.NumBanks, cfg.Obs.Census)
		}
	}
	for p := 0; p < nParts; p++ {
		g.partitions = append(g.partitions, newPartition(p, &g.cfg, im, annot, scheme, g.col))
	}
	g.reqNet = icnt.New(g.cfg.icntConfig(nParts))
	g.replyNet = icnt.New(g.cfg.icntConfig(cfg.NumSMs))
	g.replies = make([]*core.MemReq, cfg.NumSMs)
	if g.cfg.Obs.Census {
		g.host = &hostProf{}
	}
	return g
}

// Run executes every phase of the kernel to completion and returns
// aggregated statistics. It is Step in a loop: callers that need lockstep
// control (cmd/lazydiverge) drive Step directly and then call Finish.
func (g *GPU) Run() (*Result, error) {
	defer g.Close() // release the warps on every exit path
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
		for _, p := range g.partitions {
			p.memTick(g.memCycle)
		}
		if timed {
			g.host.addMem(time.Since(t0))
		}
		g.memCycle++
		if timed {
			t0 = time.Now()
		}
		if g.sampler != nil {
			g.sampler.Tick(g.memCycle, g.probeSample)
		}
		if g.dig != nil && g.memCycle%g.dig.Every() == 0 {
			g.dig.Record(g.digestRecord())
		}
		if g.met != nil && g.memCycle%metricsEvery == 0 {
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
			g.shutdown()
			return true, nil
		}
	}
	return false, nil
}

// Finish ends a stepwise run: it releases the warps and aggregates the
// results. Call it once, after Step has returned done=true.
func (g *GPU) Finish() *Result {
	g.Close()
	return g.collect()
}

// Close stops every SM's warp coroutines without collecting results; for
// abandoning a stepwise run early (a Step error, or a located divergence).
// Safe to call more than once; Run and Finish close the GPU themselves.
func (g *GPU) Close() { g.shutdown() }

// MemCycle returns the current memory-clock cycle.
func (g *GPU) MemCycle() uint64 { return g.memCycle }

// CoreCycle returns the current core-clock cycle.
func (g *GPU) CoreCycle() uint64 { return g.coreCycle }

// seedPhase distributes the phase's thread blocks round-robin over the SMs:
// built by the first phase, reseeded by every later one. Either way each SM
// starts the phase with a cold L1, as after a kernel launch on real hardware.
func (g *GPU) seedPhase(ph int) {
	wpb := max(g.cfg.WarpsPerBlock, 1)
	if g.warpsPerSM == nil {
		g.warpsPerSM = make([][]int, g.cfg.NumSMs)
	}
	for s := range g.warpsPerSM {
		g.warpsPerSM[s] = g.warpsPerSM[s][:0]
	}
	for w := 0; w < g.kern.NumWarps(ph); w++ {
		s := (w / wpb) % g.cfg.NumSMs
		g.warpsPerSM[s] = append(g.warpsPerSM[s], w)
	}
	if g.cores == nil {
		prog := core.Program(g.kern.Program)
		for s := 0; s < g.cfg.NumSMs; s++ {
			g.cores = append(g.cores, core.NewSM(s, g.cfg.SM, prog, g.warpsPerSM[s]))
		}
	} else {
		for s, sm := range g.cores {
			sm.Reseed(ph, g.warpsPerSM[s])
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

// shutdown releases every SM's warp coroutines, parked ones included. Safe
// to call more than once.
func (g *GPU) shutdown() {
	for _, s := range g.cores {
		s.Shutdown()
	}
}

func (g *GPU) coreTick() {
	now := g.coreCycle
	// 1. Partitions release due L2-hit replies and push replies to the net.
	for _, p := range g.partitions {
		p.coreTick(g.replyNet, now)
	}
	// 2. Reply network delivers to SMs, visiting the ports that hold a
	// packet in SM order; the SM handles the reply in step 3 (tickSMs).
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

// tickSMs runs step 3 of coreTick. An SM acts only when it can: on its
// horizon, on a reply, or to send its outbox head; any other Tick would be
// a no-op. Each acting SM, in SM order, sends its outbox head into the
// request network and then handles the reply it received this cycle, if
// any, taking the request back (the load transaction ends here), and
// advances.
func (g *GPU) tickSMs(now uint64) {
	send := g.sendReq(now)
	for s, sm := range g.sms {
		if g.tickEvery || g.replies[s] != nil || sm.Next() <= now || g.sendable(sm.OutboxHead()) {
			sm.Send(send)
			if rep := g.replies[s]; rep != nil {
				g.replies[s] = nil
				sm.HandleReply(rep, now)
				sm.Release(rep)
			}
			sm.Advance(now)
		}
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
// on the simulation goroutine between cycles. Live /metrics scrapes never
// call into here; they read only the atomic registry values publishMetrics
// stores.
func (g *GPU) probeSample(window uint64) obs.Sample {
	t := g.totals()
	nch := uint64(len(g.partitions))
	s := obs.Sample{
		MemCycle:    g.memCycle,
		CoreCycle:   g.coreCycle,
		QueueOcc:    float64(t.occ) / float64(nch),
		Activations: t.acts - g.prev.acts,
		Delay:       t.delay,
		ThRBL:       t.thRBL,
	}
	if dc := g.coreCycle - g.prev.core; dc > 0 {
		s.IPC = float64(t.insts-g.prev.insts) / float64(dc)
	}
	if window > 0 {
		s.BWUtil = float64(t.busy-g.prev.busy) / float64(window*nch)
	}
	g.prev = sampleState{insts: t.insts, core: g.coreCycle, busy: t.busy, acts: t.acts}
	return s
}

// machineTotals is the machine-wide state the sampler and the live metrics
// both read: retired instructions, data-bus busy cycles, activations and
// pending requests summed over the machine, and the largest in-force DMS
// delay and AMS Th_RBL across channels.
type machineTotals struct {
	insts, busy, acts, occ uint64
	delay, thRBL           int
}

// totals walks the SMs and partitions once for machineTotals.
func (g *GPU) totals() machineTotals {
	t := machineTotals{insts: g.insts}
	for _, s := range g.sms {
		t.insts += s.Insts()
	}
	for _, p := range g.partitions {
		t.busy += p.st.DataBusBusy
		t.acts += p.st.Activations
		t.occ += uint64(p.ctrl.Pending())
		t.delay = max(t.delay, p.ctrl.Delay())
		t.thRBL = max(t.thRBL, p.ctrl.ThRBL())
	}
	return t
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
		pred, fb := p.vp.Counts()
		res.VPPredictions += pred
		res.VPFallbacks += fb
		p.flush()
	}
	t := g.totals()
	r.FinalDelay, r.FinalThRBL = t.delay, t.thRBL
	prof := g.cfg.Energy
	r.RowEnergy = prof.RowEnergyNJ(&r.Mem)
	r.MemEnergy = prof.MemEnergyNJ(&r.Mem, g.memCycle, g.cfg.MemClockMHz*1e6, len(g.partitions))
	res.EnergyByChannel = prof.Attribution(res.Channels, g.memCycle, g.cfg.MemClockMHz*1e6)
	res.Output = g.kern.Output(g.im)
	res.Image = g.im
	if g.col != nil {
		g.sampler.Flush(g.memCycle, g.probeSample)
		res.Telemetry = g.col.Telemetry()
		res.Trace = g.col.Trace
		res.Audit = g.col.Audit
		res.Digest = g.col.Digest
		if res.Telemetry.Census != nil {
			res.Telemetry.Census.Host = g.host.phases()
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
		fs.Quality = g.col.FaultQuality.Summary()
	}
	return fs
}

// Prepare performs Simulate's setup — fault-seed defaulting, then the
// kernel's input: its post-Setup value and a copy-on-write fork of its
// post-Setup image, from a memo that runs Setup once per (kernel value,
// seed) while any run holds the input — and returns a GPU ready to
// execute. Callers either Run it, or drive it with Step and then Finish
// (or Close, to abandon it).
func Prepare(kern Kernel, cfg Config, scheme mc.Scheme, seed int64) *GPU {
	if cfg.Fault.Enabled && cfg.Fault.Seed == 0 {
		// Default the fault seed to the run seed so -seed alone reproduces a
		// fault run end to end.
		cfg.Fault.Seed = seed
	}
	return NewGPU(cfg, scheme, kern, setupInput(kern, seed))
}

// Simulate is the one-call entry point: set up the kernel's memory, run all
// its phases under the scheme, flush caches, and return the results.
func Simulate(kern Kernel, cfg Config, scheme mc.Scheme, seed int64) (*Result, error) {
	return Prepare(kern, cfg, scheme, seed).Run()
}
