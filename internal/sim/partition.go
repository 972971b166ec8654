package sim

import (
	"slices"

	"lazydram/internal/approx"
	"lazydram/internal/cache"
	"lazydram/internal/core"
	"lazydram/internal/dram"
	"lazydram/internal/fault"
	"lazydram/internal/icnt"
	"lazydram/internal/mc"
	"lazydram/internal/memimage"
	"lazydram/internal/obs"
	"lazydram/internal/stats"
)

// wbEntry is a dirty L2 line waiting to enter the memory controller.
type wbEntry struct {
	addr uint64
	data [cache.LineSize]byte
}

// timed is one readyHeap entry: a value that becomes due at readyAt.
type timed[T any] struct {
	readyAt uint64
	v       T
}

// readyHeap is a binary min-heap on readyAt. Its sift-up and sift-down are
// container/heap's up and down, step for step: entries with equal readyAt
// pop in exactly the order that algorithm yields, and that order decides
// reply order and therefore simulated timing. Being typed, it neither boxes
// entries into interfaces nor dispatches Less/Swap through one.
type readyHeap[T any] []timed[T]

func (h *readyHeap[T]) push(readyAt uint64, v T) {
	*h = append(*h, timed[T]{readyAt: readyAt, v: v})
	q := *h
	j := len(q) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || q[j].readyAt >= q[i].readyAt {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

// due reports whether the earliest entry is ready at now.
func (h readyHeap[T]) due(now uint64) bool { return len(h) > 0 && h[0].readyAt <= now }

// pop removes and returns the earliest entry; the heap must be non-empty.
func (h *readyHeap[T]) pop() timed[T] {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].readyAt < q[j].readyAt {
			j = j2
		}
		if q[j].readyAt >= q[i].readyAt {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	x := q[n]
	q[n] = timed[T]{}
	*h = q[:n]
	return x
}

// doneItem is a completed (or dropped) MC request waiting in the done heap
// for its data-ready time in memory cycles.
type doneItem struct {
	req    *mc.Request
	approx bool
}

// partition is one memory partition: L2 slice, its MSHRs, the lazy memory
// controller, one DRAM channel, and the value-prediction unit.
type partition struct {
	id    int
	cfg   *Config
	im    *memimage.Image
	annot *approx.Annotations

	l2    *cache.Cache
	mshr  *cache.MSHR
	dchan *dram.Channel
	ctrl  *mc.Controller
	vp    approx.Predictor
	nlVP  *approx.VPUnit // non-nil when VPKind is "nearest"
	st    stats.Mem
	tr    *obs.Tracer     // nil unless lifecycle tracing is enabled
	qual  *obs.QualityLog // nil unless approximation-quality telemetry is on
	inj   *fault.Injector // nil unless fault injection is enabled
	fq    *obs.QualityLog // nil unless fault-error telemetry is on
	cen   *obs.Census     // nil unless the cycle census is enabled

	// lastActivity and pops feed the partition-cycle census: a memory cycle
	// whose activity reading (controller progress + completion pops) matches
	// the previous cycle's provably changed nothing. pops is maintained
	// unconditionally (one increment per completed fill). advRun/gapLen/
	// gapIdle batch the census bookkeeping into runs: consecutive advancing
	// cycles and maximal non-advancing gaps are counted locally and folded
	// into the Census only when a gap closes (and at drain), keeping the
	// per-cycle cost to one compare and one increment. Idleness is constant
	// across a non-advancing run — nothing pops, pushes, or completes — so
	// sampling it on the gap's first cycle classifies the whole run.
	lastActivity uint64
	pops         uint64
	advRun       uint64
	gapLen       uint64
	gapIdle      bool

	// wbQueue[wbHead:] are the write-backs not yet in the pending queue. The
	// drained prefix is reclaimed in place when an append would otherwise
	// grow the slice (write-heavy phases keep dozens queued).
	wbQueue []wbEntry
	wbHead  int
	// done holds completed MC reads until their data-ready memory cycle;
	// hits holds L2-hit replies until their core-cycle latency elapses.
	done       readyHeap[doneItem]
	hits       readyHeap[*core.MemReply]
	outReplies []*core.MemReply

	// traffic is the partition's rolling data digest: every fill's returned
	// bytes (after fault corruption) and every write-back's bytes are folded
	// in as they happen, so a single corrupted line perturbs every later
	// digest sample even after the line itself is evicted. Folded only when
	// digestOn (Config.Obs.DigestEvery > 0); written exclusively from the
	// partition's own tick path, read at barrier-quiesced sample points.
	traffic  uint64
	digestOn bool
}

// newPartition wires partition id. shard is the partition's private slice of
// observability state (nil when observability is off): everything the
// partition records during its tick paths goes there and only there, so
// partitions can tick concurrently without sharing any obs structure.
func newPartition(id int, cfg *Config, im *memimage.Image, annot *approx.Annotations, scheme mc.Scheme, shard *obs.Shard) *partition {
	p := &partition{id: id, cfg: cfg, im: im, annot: annot}
	p.traffic = obs.FoldSeed()
	p.digestOn = cfg.Obs.DigestEvery > 0
	p.l2 = cache.New(cfg.L2)
	p.mshr = cache.NewMSHR(cfg.L2MSHREntries, cfg.L2MSHRTargets)
	p.dchan = dram.NewChannel(cfg.DRAM, &p.st)
	if shard != nil {
		p.tr = shard.ShardTracer()
		p.qual = shard.ShardQuality()
		p.fq = shard.ShardFaultQuality()
		p.cen = shard.ShardCensus()
		p.dchan.SetTrace(shard.ShardTrace(), id)
	}
	switch cfg.VPKind {
	case "zero":
		p.vp = &approx.ZeroPredictor{}
	case "lastvalue":
		p.vp = &approx.LastValuePredictor{WarmFills: cfg.VP.WarmFills}
	default: // "nearest", the paper's VP unit
		p.nlVP = approx.NewVPUnit(cfg.VP, p.l2)
		p.vp = p.nlVP
	}
	mcCfg := cfg.MC
	mcCfg.Scheme = scheme
	p.ctrl = mc.New(mcCfg, p.dchan, &p.st, p.onMCComplete, p.vp.Ready)
	p.ctrl.SetTracer(p.tr)
	if p.cen != nil {
		p.ctrl.SetCensus(p.cen)
	}
	if shard != nil {
		p.ctrl.SetAudit(shard.ShardAudit(), id)
	}
	if cfg.Fault.Enabled {
		p.inj = fault.NewInjector(cfg.Fault, id, cfg.DRAM.RowBytes, &p.st)
		p.ctrl.SetFaults(p.inj)
	}
	return p
}

func (p *partition) onMCComplete(req *mc.Request, approxDrop bool, readyAt uint64) {
	if req.Write {
		// The write-back's data was already committed to the image when the
		// line left the L2 (see queueWB); the WR command only models timing
		// and energy.
		return
	}
	p.done.push(readyAt, doneItem{req: req, approx: approxDrop})
}

// queueWB commits an evicted dirty line to the image immediately and queues
// the DRAM write command. Committing at eviction time keeps the image the
// authoritative latest memory state, so a concurrent read fill for the same
// line can never observe pre-write-back data (real controllers achieve this
// by snooping the write queue; we fold it into the functional state).
func (p *partition) queueWB(addr uint64, data []byte) {
	p.im.WriteLine(addr, data)
	if p.digestOn {
		p.traffic = obs.FoldU64(p.traffic, addr)
		p.traffic = obs.FoldBytes(p.traffic, data)
	}
	if p.wbHead > 0 && len(p.wbQueue) == cap(p.wbQueue) {
		p.wbQueue = p.wbQueue[:copy(p.wbQueue, p.wbQueue[p.wbHead:])]
		p.wbHead = 0
	}
	p.wbQueue = append(p.wbQueue, wbEntry{addr: addr})
	copy(p.wbQueue[len(p.wbQueue)-1].data[:], data)
}

// pendingWBs returns the queued write-backs, oldest first.
func (p *partition) pendingWBs() []wbEntry { return p.wbQueue[p.wbHead:] }

// memTick advances the partition by one memory cycle.
func (p *partition) memTick(now uint64) {
	// Drain one write-back into the pending queue per memory cycle.
	if p.wbHead < len(p.wbQueue) && !p.ctrl.Full() {
		addr := p.wbQueue[p.wbHead].addr
		if p.wbHead++; p.wbHead == len(p.wbQueue) {
			p.wbQueue, p.wbHead = p.wbQueue[:0], 0
		}
		p.ctrl.Push(addr, true, false, p.cfg.AddrMap.Decode(addr))
	}
	p.ctrl.Tick(now)
	for p.done.due(now) {
		it := p.done.pop()
		p.pops++
		p.finishFill(it.readyAt, it.v)
	}
	if p.cen != nil {
		// Batched partition census: count advancing cycles and non-advancing
		// gaps locally, folding a gap into the Census only when it closes.
		// Idleness is sampled on the gap's first cycle; it cannot change
		// mid-gap because nothing pops, pushes, or completes while the
		// activity reading holds still.
		act := p.ctrl.Activity() + p.pops
		if act != p.lastActivity {
			p.lastActivity = act
			if p.gapLen > 0 {
				p.cen.CloseGap(p.gapLen, p.gapIdle)
				p.gapLen = 0
			}
			p.advRun++
		} else {
			if p.gapLen == 0 {
				p.gapIdle = p.memIdle()
			}
			p.gapLen++
		}
	}
}

// memIdle reports whether the partition's memory-clock side has nothing in
// flight (the partition-census "fully idle" class; pending L2-hit replies
// live on the core clock and do not keep the memory side busy).
func (p *partition) memIdle() bool {
	return p.ctrl.Pending() == 0 && len(p.pendingWBs()) == 0 && len(p.done) == 0
}

// finishFill installs a returned (or value-predicted) line in the L2, merges
// pending stores, and queues replies for every merged load waiter.
func (p *partition) finishFill(readyAt uint64, it doneItem) {
	line := it.req.Addr
	e := p.mshr.Lookup(line)
	var data [cache.LineSize]byte
	if it.approx {
		data = p.vp.Predict(line)
		if p.qual != nil {
			// The image never sees predicted data, so it stays the ground
			// truth this drop can be scored against.
			var truth [cache.LineSize]byte
			p.im.ReadLine(line, truth[:])
			p.qual.RecordLine(readyAt, line, data[:], truth[:])
		}
	} else {
		p.im.ReadLine(line, data[:])
		// Injected faults corrupt the returned bytes only: the image keeps
		// the pristine line, so it remains the ground truth the corruption
		// can be scored against (and that end-of-run outputs are compared
		// to). The VP observes the corrupted data, as a real unit sampling
		// the fill path would.
		if f := it.req.Faults; f != nil {
			truth := data
			f.Apply(data[:])
			p.fq.RecordLine(readyAt, line, data[:], truth[:])
		}
		p.vp.Observe(line, &data)
	}
	if p.digestOn {
		// The delivered bytes — post-fault-corruption, post-prediction — are
		// the partition's externally visible data. Fold them with the delivery
		// time so timing-identical-but-data-different runs still diverge here.
		p.traffic = obs.FoldU64(p.traffic, readyAt)
		p.traffic = obs.FoldU64(p.traffic, line)
		p.traffic = obs.FoldBytes(p.traffic, data[:])
	}
	if ev, evicted := p.l2.Fill(line, data[:], it.approx); evicted {
		p.queueWB(ev.Addr, ev.Data[:])
	}
	if e == nil {
		return // scripted/direct MC traffic without an L2 waiter
	}
	p.mshr.Remove(line)
	for _, s := range e.Stores {
		p.l2.MergeWord(s.Addr, s.Val, s.N, true)
		applyWord(&data, s)
	}
	for _, t := range e.Targets {
		req := t.(*core.MemReq)
		rep := &core.MemReply{Req: req, Approx: it.approx}
		rep.Data = data
		p.outReplies = append(p.outReplies, rep)
	}
	p.mshr.Release(e)
}

func applyWord(data *[cache.LineSize]byte, s cache.PendingStore) {
	off := int(s.Addr % cache.LineSize)
	for i := 0; i < s.N; i++ {
		data[off+i] = byte(s.Val >> (8 * i))
	}
}

// coreTick advances the partition's core-clock side: releasing L2 hits whose
// latency elapsed.
func (p *partition) coreTick(now uint64) {
	for p.hits.due(now) {
		p.outReplies = append(p.outReplies, p.hits.pop().v)
	}
}

// sendReply offers the oldest outgoing reply to the reply network at core
// cycle now and dequeues it once the network accepted it; a refused reply
// stays at the head and is offered again next cycle.
func (p *partition) sendReply(net *icnt.Network, now uint64) {
	if len(p.outReplies) == 0 {
		return
	}
	r := p.outReplies[0]
	r.SentAt = now
	if net.Send(p.id, r.Req.SM, r, now) {
		p.outReplies = slices.Delete(p.outReplies, 0, 1)
	}
}

// acceptReq attempts to consume one SM transaction. It returns false when a
// structural hazard (MSHR or pending queue full) forces the request to wait
// in the network.
func (p *partition) acceptReq(req *core.MemReq, now uint64) bool {
	line := req.LineAddr
	if req.Load {
		var data [cache.LineSize]byte
		if p.l2.Read(line, data[:]) {
			p.tr.Observe(obs.StageL2Hit, p.cfg.L2HitLatency)
			rep := &core.MemReply{Req: req}
			rep.Data = data
			p.hits.push(now+p.cfg.L2HitLatency, rep)
			return true
		}
		if e := p.mshr.Lookup(line); e != nil {
			if !p.mshr.CanMerge(e) {
				p.noteIngressStall(true)
				return false
			}
			e.Targets = append(e.Targets, req)
			return true
		}
		if p.mshr.Full() || p.ctrl.Full() {
			p.noteIngressStall(false)
			return false
		}
		e := p.mshr.Allocate(line)
		e.Targets = append(e.Targets, req)
		coord := p.cfg.AddrMap.Decode(line)
		p.ctrl.Push(line, false, p.annot.Approximable(line), coord)
		return true
	}
	// Store transaction: write-back L2 with write-allocate.
	if p.l2.Read(line, nil) {
		for _, s := range req.Stores {
			p.l2.MergeWord(s.Addr, s.Val, s.N, true)
		}
		return true
	}
	if e := p.mshr.Lookup(line); e != nil {
		e.Stores = append(e.Stores, req.Stores...)
		e.HasStore = true
		return true
	}
	if p.mshr.Full() || p.ctrl.Full() {
		p.noteIngressStall(false)
		return false
	}
	e := p.mshr.Allocate(line)
	e.Stores = append(e.Stores, req.Stores...)
	e.HasStore = true
	coord := p.cfg.AddrMap.Decode(line)
	// The fill-for-write is a DRAM read, but never approximable: dropping it
	// would lose the exactness guarantee for stores.
	p.ctrl.Push(line, false, false, coord)
	return true
}

// noteIngressStall counts one blocked acceptReq retry for the census's
// ingress backpressure block: a transaction parked at the head of the
// request network retries every core cycle, so the counters measure blocked
// request-cycles. These sit upstream of the pending queue and are outside
// the mem-side Σ-invariant (DESIGN.md §11). merge distinguishes a
// merge-limit refusal from the structural MSHR-full/queue-full pair.
func (p *partition) noteIngressStall(merge bool) {
	if p.cen == nil {
		return
	}
	switch {
	case merge:
		p.cen.MergeLimit++
	case p.mshr.Full():
		p.cen.MSHRFull++
	default:
		p.cen.QueueFull++
	}
}

// idle reports whether no request, reply, or write-back is in flight.
func (p *partition) idle() bool {
	return p.mshr.Len() == 0 && p.ctrl.Pending() == 0 &&
		len(p.pendingWBs()) == 0 && len(p.done) == 0 && len(p.hits) == 0 &&
		len(p.outReplies) == 0
}

// flush writes every dirty L2 line back to the image; used at end of run so
// Output sees the complete result.
func (p *partition) flush() {
	p.l2.DirtyLines(func(addr uint64, data []byte) {
		p.im.WriteLine(addr, data)
	})
}

// drainStats folds in-flight DRAM activation accounting into the statistics
// and closes the census's open spans and trailing non-advancing run. end is
// one past the last ticked memory cycle, so the flushed spans cover exactly
// the elapsed bank-cycles.
func (p *partition) drainStats(end uint64) {
	p.dchan.Drain()
	p.ctrl.CensusFinish(end)
	if p.cen != nil {
		if p.gapLen > 0 {
			p.cen.CloseGap(p.gapLen, p.gapIdle)
			p.gapLen = 0
		}
		p.cen.AddAdvancing(p.advRun)
		p.advRun = 0
	}
	p.cen.FlushGap()
}
