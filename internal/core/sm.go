package core

import (
	"encoding/binary"
	"iter"
	"slices"

	"lazydram/internal/cache"
)

// Program generates the instruction stream of one warp. The sequence is
// pulled lazily: the simulator resumes it only after the previously yielded
// instruction completed, so the program may read registers written by the
// preceding load.
type Program func(warpID int, ctx *Ctx) iter.Seq[Op]

// MemReq is a coalesced 128-byte line transaction leaving an SM toward a
// memory partition.
type MemReq struct {
	SM       int
	LineAddr uint64
	Load     bool
	// Stores carries the word writes of a store transaction.
	Stores []cache.PendingStore
	// IssuedAt is the core cycle the transaction entered the SM's outbox;
	// the observability layer uses it to measure end-to-end and
	// interconnect latency.
	IssuedAt uint64
}

// MemReply answers a load MemReq with the line's bytes. Approx marks data
// synthesized by the value-prediction unit for an AMS-dropped request.
type MemReply struct {
	Req    *MemReq
	Data   [cache.LineSize]byte
	Approx bool
	// SentAt is the core cycle the reply entered the reply network; used by
	// the observability layer to measure reply-interconnect latency.
	SentAt uint64
}

// Config sizes one SM.
type Config struct {
	MaxResidentWarps int
	Schedulers       int
	L1               cache.Config
	L1MSHREntries    int
	L1MSHRTargets    int
	// L1HitLatency is the core-cycle latency of a load serviced by the L1
	// (also applied as the return latency after the last miss reply).
	L1HitLatency uint64
	// OutboxDepth bounds the SM-to-interconnect staging queue.
	OutboxDepth int
}

// DefaultConfig mirrors Table I's per-core resources.
func DefaultConfig() Config {
	return Config{
		MaxResidentWarps: 48,
		Schedulers:       2,
		L1:               cache.Config{SizeBytes: 16 * 1024, Ways: 4},
		L1MSHREntries:    64,
		L1MSHRTargets:    8,
		L1HitLatency:     24,
		OutboxDepth:      16,
	}
}

// warp is one resident warp slot.
type warp struct {
	id       int
	slot     int32
	ctx      *Ctx
	next     func() (Op, bool)
	stop     func()
	readyAt  uint64
	blocked  bool
	hasOp    bool
	cur      Op
	finished bool
	// asyncOps counts in-flight asynchronous loads; joinWaiting marks a warp
	// blocked at an OpJoin until that count drains.
	asyncOps    int
	joinWaiting bool
}

// memOp is a memory instruction being processed by the load/store unit.
type memOp struct {
	w           *warp
	kind        OpKind
	dst         uint8
	lanes       *LaneSet
	lines       [WarpSize]uint64 // unique line addresses, in lane order
	numLines    int
	nextLine    int
	outstanding int
	async       bool
	pooled      bool // guards double-release
}

// wheelSize is the wake-wheel horizon in cycles; no instruction may sleep a
// warp longer than this.
const wheelSize = 1024

// SM is one streaming multiprocessor.
type SM struct {
	id   int
	cfg  Config
	l1   *cache.Cache
	mshr *cache.MSHR

	prog     Program
	warpIDs  []int
	nextSeed int
	warps    []*warp

	// runnable is the FIFO of warp slots eligible to issue (loose round
	// robin); wheel wakes sleeping warps at their readyAt cycle.
	runnable []int32
	wheel    [wheelSize][]int32

	lsu      *memOp
	lsuQueue []int32 // warps parked with a decoded memory instruction
	opPool   []*memOp
	outbox   []*MemReq

	outstanding int // load transactions in flight past the L1

	insts uint64
}

// NewSM creates an SM that will run the given warp IDs through prog.
func NewSM(id int, cfg Config, prog Program, warpIDs []int) *SM {
	s := &SM{
		id:      id,
		cfg:     cfg,
		l1:      cache.New(cfg.L1),
		mshr:    cache.NewMSHR(cfg.L1MSHREntries, cfg.L1MSHRTargets),
		prog:    prog,
		warpIDs: warpIDs,
	}
	for len(s.warps) < cfg.MaxResidentWarps && s.nextSeed < len(warpIDs) {
		w := s.launch()
		w.slot = int32(len(s.warps))
		s.warps = append(s.warps, w)
		s.runnable = append(s.runnable, w.slot)
	}
	return s
}

// sleep schedules the warp to re-enter the runnable queue at its readyAt
// cycle via the wake wheel.
func (s *SM) sleep(w *warp, now uint64) {
	if w.readyAt <= now {
		s.runnable = append(s.runnable, w.slot)
		return
	}
	delta := w.readyAt - now
	if delta >= wheelSize {
		panic("core: instruction latency exceeds wake-wheel horizon")
	}
	slot := w.readyAt % wheelSize
	s.wheel[slot] = append(s.wheel[slot], w.slot)
}

// wake moves warps whose readyAt cycle arrived into the runnable queue.
func (s *SM) wake(now uint64) {
	slot := now % wheelSize
	if len(s.wheel[slot]) == 0 {
		return
	}
	s.runnable = append(s.runnable, s.wheel[slot]...)
	s.wheel[slot] = s.wheel[slot][:0]
}

func (s *SM) launch() *warp {
	id := s.warpIDs[s.nextSeed]
	s.nextSeed++
	ctx := &Ctx{}
	next, stop := iter.Pull(s.prog(id, ctx))
	return &warp{id: id, ctx: ctx, next: next, stop: stop}
}

// Insts returns the number of warp instructions issued.
func (s *SM) Insts() uint64 { return s.insts }

// L1Stats returns the L1 cache counters.
func (s *SM) L1Stats() cache.Stats { return s.l1.Stats() }

// Done reports whether the SM has retired all its warps and drained all
// in-flight memory traffic.
func (s *SM) Done() bool {
	if s.nextSeed < len(s.warpIDs) || s.lsu != nil || len(s.lsuQueue) > 0 ||
		len(s.outbox) > 0 || s.outstanding > 0 {
		return false
	}
	for _, w := range s.warps {
		if !w.finished {
			return false
		}
	}
	return true
}

// Shutdown releases the coroutines of unfinished warp programs. Call when a
// run is aborted before completion.
func (s *SM) Shutdown() {
	for _, w := range s.warps {
		if !w.finished {
			w.finished = true
			w.stop()
		}
	}
}

// Tick advances the SM by one core cycle. send pushes a transaction into the
// request network and reports acceptance.
func (s *SM) Tick(now uint64, send func(*MemReq) bool) {
	if len(s.outbox) > 0 && send(s.outbox[0]) {
		s.outbox = slices.Delete(s.outbox, 0, 1)
	}
	s.wake(now)
	s.lsuTick(now)
	s.issue(now)
}

func (s *SM) issue(now uint64) {
	issued, popped := 0, 0
	// Pop at most the warps that were runnable on entry: warps re-queued on
	// a structural hazard (LSU busy) retry next cycle, not this one. Popped
	// entries are consumed by index and compacted away once, after the loop,
	// so the queue keeps its storage.
	for n := len(s.runnable); n > 0 && issued < s.cfg.Schedulers; n-- {
		slot := s.runnable[popped]
		popped++
		w := s.warps[slot]
		if w.finished {
			continue
		}
		if !w.hasOp {
			op, ok := w.next()
			if !ok {
				w.finished = true
				w.stop()
				if s.nextSeed < len(s.warpIDs) {
					nw := s.launch()
					nw.slot = slot
					s.warps[slot] = nw
					s.runnable = append(s.runnable, slot)
				}
				continue
			}
			w.cur = op
			w.hasOp = true
		}
		switch w.cur.Kind {
		case OpCompute:
			w.readyAt = now + uint64(w.cur.Cycles)
			w.hasOp = false
			s.insts++
			issued++
			s.sleep(w, now)
		case OpJoin:
			s.insts++
			issued++
			if w.asyncOps == 0 {
				w.readyAt = now + 1
				w.hasOp = false
				s.sleep(w, now)
			} else {
				w.joinWaiting = true
				w.blocked = true
				w.hasOp = false
			}
		case OpLoad, OpStore:
			if s.lsu != nil || len(s.lsuQueue) > 0 {
				// Park at the LSU: the warp leaves the runnable queue and is
				// installed directly when the LSU frees, keeping its order.
				s.lsuQueue = append(s.lsuQueue, slot)
				continue
			}
			s.installMemOp(w)
			issued++
		}
	}
	s.runnable = slices.Delete(s.runnable, 0, popped)
}

// installMemOp coalesces the lane addresses of w's current memory
// instruction into unique line transactions and occupies the LSU with it.
func (s *SM) installMemOp(w *warp) {
	var op *memOp
	if n := len(s.opPool); n > 0 {
		op = s.opPool[n-1]
		s.opPool = s.opPool[:n-1]
		*op = memOp{}
	} else {
		op = &memOp{}
	}
	op.w = w
	op.kind = w.cur.Kind
	op.dst = w.cur.Dst
	op.async = w.cur.Async && w.cur.Kind == OpLoad
	op.lanes = w.cur.Lanes
	if op.async {
		w.asyncOps++
	}
	for l := 0; l < WarpSize; l++ {
		if op.lanes.Active&(1<<uint(l)) == 0 {
			continue
		}
		line := lineOf(op.lanes.Addrs[l])
		seen := false
		for i := 0; i < op.numLines; i++ {
			if op.lines[i] == line {
				seen = true
				break
			}
		}
		if !seen {
			op.lines[op.numLines] = line
			op.numLines++
		}
	}
	s.lsu = op
	w.blocked = true
	w.hasOp = false
	s.insts++
}

// releaseOp returns a fully completed memOp to the pool.
func (s *SM) releaseOp(op *memOp) {
	if op.pooled {
		return
	}
	op.pooled = true
	op.lanes = nil
	s.opPool = append(s.opPool, op)
}

// lsuTick processes at most one line transaction of the current memory op,
// installing the next parked memory instruction when the unit frees up.
func (s *SM) lsuTick(now uint64) {
	if s.lsu == nil && len(s.lsuQueue) > 0 {
		slot := s.lsuQueue[0]
		s.lsuQueue = slices.Delete(s.lsuQueue, 0, 1)
		s.installMemOp(s.warps[slot])
	}
	op := s.lsu
	if op == nil {
		return
	}
	if op.nextLine < op.numLines {
		line := op.lines[op.nextLine]
		if op.kind == OpLoad {
			if !s.lsuLoadLine(op, line, now) {
				return // structural stall; retry next cycle
			}
		} else if !s.lsuStoreLine(op, line, now) {
			return
		}
		op.nextLine++
	}
	if op.nextLine >= op.numLines {
		s.lsu = nil
		switch {
		case op.async:
			// Non-blocking load: the warp resumes as soon as the
			// transactions are issued; data synchronizes at the next join.
			op.w.blocked = false
			if at := now + 1; at > op.w.readyAt {
				op.w.readyAt = at
			}
			s.sleep(op.w, now)
			if op.outstanding == 0 {
				s.finishAsync(op, now)
			}
		case op.kind == OpStore || op.outstanding == 0:
			s.completeOp(op, now)
			s.releaseOp(op)
		}
	}
}

// finishAsync retires a completed asynchronous load, releasing a warp parked
// at a join once its last async load delivers.
func (s *SM) finishAsync(op *memOp, now uint64) {
	w := op.w
	w.asyncOps--
	if w.joinWaiting && w.asyncOps == 0 {
		w.joinWaiting = false
		w.blocked = false
		if at := now + s.cfg.L1HitLatency; at > w.readyAt {
			w.readyAt = at
		}
		s.sleep(w, now)
	}
	s.releaseOp(op)
}

func (s *SM) lsuLoadLine(op *memOp, line uint64, now uint64) bool {
	// Probe hazards before recording the access so a structurally stalled
	// transaction does not inflate the L1 statistics on every retry.
	if e := s.mshr.Lookup(line); e != nil {
		if !s.mshr.CanMerge(e) {
			return false
		}
		s.l1.Read(line, nil) // records the miss
		e.Targets = append(e.Targets, op)
		op.outstanding++
		s.outstanding++
		return true
	}
	var buf [cache.LineSize]byte
	if s.l1.Contains(line) {
		s.l1.Read(line, buf[:])
		deliverLoad(op, line, &buf)
		return true
	}
	if s.mshr.Full() || len(s.outbox) >= s.cfg.OutboxDepth {
		return false
	}
	s.l1.Read(line, nil) // records the miss
	e := s.mshr.Allocate(line)
	e.Targets = append(e.Targets, op)
	op.outstanding++
	s.outstanding++
	s.outbox = append(s.outbox, &MemReq{SM: s.id, LineAddr: line, Load: true, IssuedAt: now})
	return true
}

func (s *SM) lsuStoreLine(op *memOp, line uint64, now uint64) bool {
	if len(s.outbox) >= s.cfg.OutboxDepth {
		return false
	}
	var stores []cache.PendingStore
	for l := 0; l < WarpSize; l++ {
		if op.lanes.Active&(1<<uint(l)) == 0 {
			continue
		}
		a := op.lanes.Addrs[l]
		if lineOf(a) != line {
			continue
		}
		v := op.lanes.Vals[l]
		// Write-through: keep a resident L1 copy coherent with the L2.
		s.l1.MergeWord(a, uint64(v), 4, false)
		stores = append(stores, cache.PendingStore{Addr: a, Val: uint64(v), N: 4})
	}
	s.outbox = append(s.outbox, &MemReq{SM: s.id, LineAddr: line, Stores: stores, IssuedAt: now})
	return true
}

func (s *SM) completeOp(op *memOp, now uint64) {
	op.w.blocked = false
	if at := now + s.cfg.L1HitLatency; at > op.w.readyAt {
		op.w.readyAt = at
	}
	s.sleep(op.w, now)
}

// HandleReply processes a load reply from the memory partition: it fills the
// L1, delivers lane values to every merged waiter, and unblocks warps whose
// memory instruction is now complete.
func (s *SM) HandleReply(rep *MemReply, now uint64) {
	line := rep.Req.LineAddr
	e := s.mshr.Lookup(line)
	if e == nil {
		return // spurious reply; cannot happen in normal operation
	}
	s.mshr.Remove(line)
	s.l1.Fill(line, rep.Data[:], rep.Approx)
	for _, t := range e.Targets {
		op := t.(*memOp)
		deliverLoad(op, line, &rep.Data)
		op.outstanding--
		s.outstanding--
		if op.outstanding == 0 && op.nextLine >= op.numLines && s.lsu != op {
			if op.async {
				s.finishAsync(op, now)
			} else {
				s.completeOp(op, now)
				s.releaseOp(op)
			}
		}
	}
	s.mshr.Release(e)
}

// deliverLoad writes the loaded words of line into the destination register
// of every active lane addressed within it.
func deliverLoad(op *memOp, line uint64, data *[cache.LineSize]byte) {
	for l := 0; l < WarpSize; l++ {
		if op.lanes.Active&(1<<uint(l)) == 0 {
			continue
		}
		a := op.lanes.Addrs[l]
		if lineOf(a) != line {
			continue
		}
		off := a % cache.LineSize
		op.w.ctx.Regs[op.dst][l] = binary.LittleEndian.Uint32(data[off : off+4])
	}
}
