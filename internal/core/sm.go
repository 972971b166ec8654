package core

import (
	"encoding/binary"
	"iter"
	"math/bits"
	"slices"

	"lazydram/internal/cache"
	"lazydram/internal/dram"
)

// Program runs the body of warp warpID of a kernel phase, handing each
// instruction to yield, and returns once the body ends or yield reports
// false. It returns no iterator, so launching a warp allocates nothing: the
// SM passes its slot coroutine's push as yield. The SM does not pull the
// program one op at a time: the program runs ahead, buffering ops, until it
// touches a Ctx slot a buffered op owns (it reads a blocking load's register
// or rebuilds a lane set in use, see runSlot), yields a Join, or buffers
// maxBatch ops. The SM then takes the batch and resumes the program once it
// wants the op after the last one; the warp blocks on each blocking load and
// store until it completes, so by then no slot is owned. The SM issues the
// ops one per issue slot, so the timing is that of a per-op pull. Two rules
// make that equivalence hold:
//
//   - A program must read registers only through the Ctx readers, and not
//     read an async load's destination register before the Join that
//     follows it (see Ctx.Async). A row from Ctx.Row is valid until the
//     program's next op on its register.
//   - A program must never observe time, or any other simulated state than
//     its registers: between sync points it runs ahead of the simulated
//     clock.
type Program func(phase, warpID int, ctx *Ctx, yield func(Op) bool)

// maxBatch bounds the ops a program may buffer ahead of the SM; a
// compute-only loop would otherwise grow its buffer without limit.
const maxBatch = 16

// MemReq is a coalesced 128-byte line transaction. It leaves an SM toward a
// memory partition and, for a load, returns through the reply network
// carrying the line, so one object serves the whole transaction. The issuing
// SM owns it and recycles it through Release: a load request once
// HandleReply has consumed its reply, a store request once a partition has
// accepted it (the L2 or its MSHR copied the words by then).
type MemReq struct {
	SM       int
	LineAddr uint64
	Load     bool
	// Routed marks Coord as set by the transaction's first send attempt.
	Routed bool
	// Approx marks reply data synthesized by the value-prediction unit for
	// an AMS-dropped request.
	Approx bool
	// Mask marks the words a store transaction writes: bit w is the 4-byte
	// word at LineAddr+4*w, its bytes in Data. Zero for a load.
	Mask uint32
	// IssuedAt is the core cycle the transaction entered the SM's outbox;
	// the observability layer uses it to measure end-to-end and
	// interconnect latency.
	IssuedAt uint64
	// Coord is the line's DRAM coordinate, decoded once per transaction
	// (fields are ordered to keep the struct at 200 bytes); send retries and
	// the partition reuse it.
	Coord dram.Coord

	// Data holds a store's written words and a load's reply: the line's
	// bytes.
	Data [cache.LineSize]byte
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
	id   int
	slot int32
	// resume runs the slot's coroutine to the program's next sync point,
	// filling batch; ended reports that the program returned, so batch
	// holds its last ops. stop releases the coroutine; both are nil once it
	// has been released (halt). Inside the coroutine, yield hands the batch
	// back (see sync); stopped records that it returned false.
	resume  func() (ended, ok bool)
	stop    func()
	yield   func(ended bool) bool
	stopped bool
	// batch[head:] are the buffered ops the SM has not consumed yet.
	batch    []Op
	head     int
	ended    bool
	readyAt  uint64
	blocked  bool
	hasOp    bool
	cur      Op
	finished bool
	// asyncOps counts in-flight asynchronous loads; joinWaiting marks a warp
	// blocked at an OpJoin until that count drains.
	asyncOps    int
	joinWaiting bool
	// wheelNext links the warps sleeping in the same wake-wheel bucket:
	// the next one's slot+1, 0 at the tail.
	wheelNext int32
	// ctx is the program's Ctx, last so that its pointer-free registers
	// end the record (see Ctx).
	ctx Ctx
}

// memOp is a memory instruction being processed by the load/store unit.
type memOp struct {
	w     *warp
	kind  OpKind
	lanes *LaneSet
	regs  *[WarpSize]uint32 // a load's destination register row
	// masks[i] marks the lanes addressing the op's i-th unique line, the
	// lines in lane order (see line).
	masks       [WarpSize]uint32
	numLines    int
	nextLine    int
	outstanding int
	async       bool
	pooled      bool // guards double-release
}

// wheelSize is the wake-wheel horizon in cycles; no instruction may sleep a
// warp longer than this.
const wheelSize = 1024

// never is the horizon of an SM that has nothing to do until an outside
// event.
const never = ^uint64(0)

// SM is one streaming multiprocessor.
type SM struct {
	// next is the first cycle on which Tick can act without an outside
	// event (see horizon). It shares a cache line with the fields Tick and
	// the GPU's tick gate read first; it is bookkeeping, not state, and
	// stays out of DigestInto.
	next   uint64
	outbox []*MemReq
	// runnable is the FIFO of warp slots eligible to issue (loose round
	// robin).
	runnable []int32
	lsu      *memOp
	lsuQueue []int32 // warps parked with a decoded memory instruction
	// lsuStalled parks the LSU after its current line failed on a full
	// outbox or MSHR: until a reply or an outbox pop the retry would fail
	// again, so lsuTick returns at once.
	lsuStalled bool
	// sleepers counts the warps in the wake wheel.
	sleepers int

	id   int
	cfg  Config
	l1   *cache.Cache
	mshr *cache.MSHR

	prog     Program
	phase    int
	warpIDs  []int
	nextSeed int
	warps    []*warp

	// The wake wheel holds sleeping warps until their readyAt cycle: bucket
	// c%wheelSize is an intrusive FIFO through warp.wheelNext, with
	// wheelHead/wheelTail holding slot+1 (0 = empty).
	wheelHead [wheelSize]int32
	wheelTail [wheelSize]int32

	opPool  []*memOp
	reqPool []*MemReq // released transactions, for newReq

	outstanding int // load transactions in flight past the L1

	insts uint64
}

// NewSM creates an SM that will run the given warp IDs of phase 0 through
// prog.
func NewSM(id int, cfg Config, prog Program, warpIDs []int) *SM {
	s := &SM{
		id:      id,
		cfg:     cfg,
		l1:      cache.New(cfg.L1),
		mshr:    cache.NewMSHR(cfg.L1MSHREntries, cfg.L1MSHRTargets),
		prog:    prog,
		warpIDs: warpIDs,
	}
	s.fillSlots(nil)
	return s
}

// Reseed readies a Done SM to run warpIDs of the given kernel phase
// through its program, leaving it exactly as NewSM would: a cold L1 (as
// after a real kernel launch), an empty MSHR, zero counters, fresh
// runnable and warp lists, zeroed registers. It keeps the storage: the L1 lines, the MSHR
// table and free entries, the memOp and transaction pools, and the warp
// records with their Ctx and parked slot coroutines.
func (s *SM) Reseed(phase int, warpIDs []int) {
	if !s.Done() {
		panic("core: reseed of an SM with work in flight")
	}
	s.l1.Reset()
	s.phase, s.warpIDs, s.nextSeed, s.insts = phase, warpIDs, 0, 0
	s.next, s.sleepers = 0, 0
	s.runnable = s.runnable[:0]
	clear(s.wheelHead[:])
	clear(s.wheelTail[:])
	old := s.warps
	s.warps = s.warps[:0]
	s.fillSlots(old)
}

// fillSlots starts the first warp IDs in the empty slot list, reusing the
// live record of the same slot in old (the previous phase's slots) and
// releasing the old slots left over.
func (s *SM) fillSlots(old []*warp) {
	for len(s.warps) < s.cfg.MaxResidentWarps && s.nextSeed < len(s.warpIDs) {
		slot := int32(len(s.warps))
		var w *warp
		if int(slot) < len(old) && old[slot].stop != nil {
			w = old[slot]
			s.relaunch(w)
		} else {
			w = s.launch(slot)
		}
		s.warps = append(s.warps, w)
		s.runnable = append(s.runnable, slot)
	}
	for _, w := range old[min(len(s.warps), len(old)):] {
		w.halt()
	}
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
	b := w.readyAt % wheelSize
	w.wheelNext = 0
	s.sleepers++
	if t := s.wheelTail[b]; t == 0 {
		s.wheelHead[b] = w.slot + 1
	} else {
		s.warps[t-1].wheelNext = w.slot + 1
	}
	s.wheelTail[b] = w.slot + 1
}

// wake moves warps whose readyAt cycle arrived into the runnable queue, in
// the order they went to sleep.
func (s *SM) wake(now uint64) {
	b := now % wheelSize
	if s.wheelHead[b] == 0 {
		return
	}
	for l := s.wheelHead[b]; l != 0; l = s.warps[l-1].wheelNext {
		s.runnable = append(s.runnable, l-1)
		s.sleepers--
	}
	s.wheelHead[b], s.wheelTail[b] = 0, 0
}

// launch starts the next warp ID in a fresh warp record with its own slot
// coroutine.
func (s *SM) launch(slot int32) *warp {
	w := &warp{id: s.warpIDs[s.nextSeed], slot: slot, batch: make([]Op, 0, maxBatch)}
	w.ctx.w = w
	s.nextSeed++
	w.resume, w.stop = iter.Pull(s.runSlot(w))
	return w
}

// relaunch starts the next warp ID in w's record and coroutine; w's program
// has ended with no load in flight, and its coroutine is parked between
// programs. The record is reset to exactly what launch would build, zeroed
// registers included. It is cleared in place: a composite literal would
// build the whole record, registers included, on the stack and copy it.
func (s *SM) relaunch(w *warp) {
	slot, resume, stop, yield, batch := w.slot, w.resume, w.stop, w.yield, w.batch[:0]
	*w = warp{}
	w.id, w.slot, w.resume, w.stop = s.warpIDs[s.nextSeed], slot, resume, stop
	w.yield, w.batch = yield, batch
	w.ctx.w = w
	s.nextSeed++
}

// runSlot is the body of a slot coroutine: it runs the programs of the
// warps that successively occupy w's record. Each resume runs the current
// program to its next sync point and yields ended=false (see sync); when
// the program returns it yields ended=true, and the next resume starts the
// program of whatever warp ID w holds by then.
func (s *SM) runSlot(w *warp) iter.Seq[bool] {
	return func(yield func(bool) bool) {
		w.yield = yield
		push := func(op Op) bool {
			if w.stopped {
				return false
			}
			w.batch = append(w.batch, op)
			// Until the SM finishes it, a blocking load owns its register
			// and lane set, a store the store lane set.
			switch {
			case op.Kind == OpStore:
				w.ctx.pending[MaxRegs-1] = true
			case op.Kind == OpLoad && !op.Async:
				w.ctx.pending[op.Dst] = true
			}
			if len(w.batch) == maxBatch || op.endsBatch() {
				w.sync()
			}
			return !w.stopped
		}
		for !w.stopped {
			s.prog(s.phase, w.id, &w.ctx, push)
			w.stopped = w.stopped || !yield(true)
		}
	}
}

// sync hands w's batch to the SM from inside the slot coroutine and returns
// once the SM wants the op after it, when no slot is owned any more (see
// Program). Kept out of line so that Ctx.need inlines into the readers.
//
//go:noinline
func (w *warp) sync() {
	if !w.stopped {
		w.stopped = !w.yield(false)
	}
	w.ctx.pending = [MaxRegs]bool{}
}

// nextOp returns w's next op, resuming its program when the buffered batch
// is used up; ok is false once the program has ended and its ops are
// consumed.
func (w *warp) nextOp() (Op, bool) {
	if w.head == len(w.batch) {
		if w.ended {
			return Op{}, false
		}
		w.head, w.batch = 0, w.batch[:0]
		ended, ok := w.resume()
		w.ended = ended || !ok
		if len(w.batch) == 0 {
			return Op{}, false
		}
	}
	op := w.batch[w.head]
	w.head++
	return op, true
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

// halt releases w's slot coroutine, once.
func (w *warp) halt() {
	if w.stop != nil {
		w.stop()
		w.resume, w.stop = nil, nil
	}
}

// Shutdown releases every slot coroutine: those of unfinished programs and
// those parked for a next phase. Call it when a run ends or is abandoned;
// it is safe to call more than once.
func (s *SM) Shutdown() {
	for _, w := range s.warps {
		w.finished = true
		w.halt()
	}
}

// Next returns the first cycle on which Tick can act, unless a reply
// arrives or the outbox head can be sent first; until then a Tick is a
// no-op apart from that send.
func (s *SM) Next() uint64 { return s.next }

// OutboxHead returns the transaction Tick will try to send first, or nil.
func (s *SM) OutboxHead() *MemReq {
	if len(s.outbox) == 0 {
		return nil
	}
	return s.outbox[0]
}

// Tick advances the SM by one core cycle: Send, then Advance. send pushes a
// transaction into the request network and reports acceptance. It may be
// called on every cycle, but need not be: see Next.
func (s *SM) Tick(now uint64, send func(*MemReq) bool) {
	s.Send(send)
	s.Advance(now)
}

// Send offers the outbox head to send, the one part of a Tick that touches
// state outside the SM, so a caller that ticks many SMs sends for them in a
// fixed order.
func (s *SM) Send(send func(*MemReq) bool) {
	if len(s.outbox) > 0 && send(s.outbox[0]) {
		s.outbox = slices.Delete(s.outbox, 0, 1)
		s.lsuStalled = false
	}
}

// Advance runs the rest of a Tick after its Send: it wakes sleeping warps,
// steps the LSU, issues and sets the horizon, touching only the SM itself.
func (s *SM) Advance(now uint64) {
	s.wake(now)
	s.lsuTick(now)
	s.issue(now)
	s.next = s.horizon(now)
}

// horizon returns the first cycle after now on which Tick can act without a
// reply or an outbox pop: the next one while a warp is runnable or the LSU
// can progress, else that of the earliest wake-wheel bucket holding a warp,
// else never. Nothing else changes between ticks what a Tick would do: a
// parked LSU retries only after a reply (MSHR entry freed, L1 filled) or a
// pop (outbox slot freed), and HandleReply resets the horizon itself.
func (s *SM) horizon(now uint64) uint64 {
	if len(s.runnable) > 0 || !s.lsuStalled && (s.lsu != nil || len(s.lsuQueue) > 0) {
		return now + 1
	}
	if s.sleepers == 0 {
		return never
	}
	// A warp sleeps less than wheelSize cycles, so the scan ends within one
	// turn of the wheel.
	t := now + 1
	for s.wheelHead[t%wheelSize] == 0 {
		t++
	}
	return t
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
			op, ok := w.nextOp()
			if !ok {
				s.retire(w)
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

// retire finishes w, whose program ended, and starts the next warp ID in
// its slot. The slot's record and coroutine carry over unless async loads
// are still in flight: their replies write into w's registers, so w is
// abandoned to them and the next warp gets a fresh record and coroutine.
// The phase's last program in a slot leaves its coroutine parked for
// Reseed, even with loads in flight: Reseed waits for the SM to be Done,
// by which time every reply has landed.
func (s *SM) retire(w *warp) {
	w.finished = true
	switch {
	case s.nextSeed == len(s.warpIDs):
		return
	case w.asyncOps == 0:
		s.relaunch(w)
	default:
		w.halt()
		s.warps[w.slot] = s.launch(w.slot)
	}
	s.runnable = append(s.runnable, w.slot)
}

// coalesce groups ls's active lanes by line: masks[i] receives the lanes
// addressing the i-th unique line, the lines in lane order. It returns the
// line count. A contiguous set spans at most two lines, so its masks are
// arithmetic.
func coalesce(ls *LaneSet, masks *[WarpSize]uint32) int {
	n := 0
	if ls.Seq {
		// Lanes [0, k) address Base's line (k is 32 when it holds all).
		base := uint64(ls.Base)
		k := (lineOf(base) + cache.LineSize - base + 3) / 4
		lo := ls.Active & (uint32(1)<<k - 1)
		if lo != 0 {
			masks[0] = lo
			n = 1
		}
		if hi := ls.Active &^ lo; hi != 0 {
			masks[n] = hi
			n++
		}
		return n
	}
	var lines [WarpSize]uint64
	for m := ls.Active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		line := lineOf(uint64(ls.Addrs[l]))
		i := 0
		for i < n && lines[i] != line {
			i++
		}
		if i == n {
			lines[n], masks[n] = line, 0
			n++
		}
		masks[i] |= 1 << l
	}
	return n
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
	op.async = w.cur.Async && w.cur.Kind == OpLoad
	op.lanes = w.cur.Lanes
	op.regs = &w.ctx.Regs[w.cur.Dst]
	if op.async {
		w.asyncOps++
	}
	op.numLines = coalesce(op.lanes, &op.masks)
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
	op.lanes, op.regs = nil, nil
	s.opPool = append(s.opPool, op)
}

// lsuTick processes at most one line transaction of the current memory op,
// installing the next parked memory instruction when the unit frees up.
func (s *SM) lsuTick(now uint64) {
	if s.lsuStalled {
		return
	}
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
		if op.kind == OpLoad {
			if !s.lsuLoadLine(op, op.nextLine, now) {
				s.lsuStalled = true // structural stall; park until a reply or a pop
				return
			}
		} else if !s.lsuStoreLine(op, op.nextLine, now) {
			s.lsuStalled = true
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

// lsuLoadLine issues op's i-th line transaction.
func (s *SM) lsuLoadLine(op *memOp, i int, now uint64) bool {
	line := op.line(i)
	// Probe hazards before recording the access so a structurally stalled
	// transaction does not inflate the L1 statistics on every retry. A
	// failed attempt thus changes nothing, and the retries a parked LSU
	// skips (lsuStalled) need no charge.
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
		deliverLoad(op, i, &buf)
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
	s.outbox = append(s.outbox, s.newReq(line, true, now))
	return true
}

// lsuStoreLine issues op's i-th line transaction: the words its lanes
// write, as a mask plus the line bytes. Lanes are written in lane order, so
// of two lanes storing to one word the later one wins.
func (s *SM) lsuStoreLine(op *memOp, i int, now uint64) bool {
	if len(s.outbox) >= s.cfg.OutboxDepth {
		return false
	}
	line := op.line(i)
	r := s.newReq(line, false, now)
	ls := op.lanes
	for m := op.masks[i]; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		off := ls.Addr(l) % cache.LineSize
		binary.LittleEndian.PutUint32(r.Data[off:off+4], ls.Vals[l])
		r.Mask |= 1 << (off / 4)
	}
	// Write-through: keep a resident L1 copy coherent with the L2.
	s.l1.MergeLine(line, r.Mask, &r.Data, false)
	s.outbox = append(s.outbox, r)
	return true
}

// newReq returns a transaction for line, reusing a released one when it can.
func (s *SM) newReq(line uint64, load bool, now uint64) *MemReq {
	var r *MemReq
	if n := len(s.reqPool); n > 0 {
		r = s.reqPool[n-1]
		s.reqPool = s.reqPool[:n-1]
		*r = MemReq{}
	} else {
		r = &MemReq{}
	}
	r.SM, r.LineAddr, r.Load, r.IssuedAt = s.id, line, load, now
	return r
}

// Release returns a transaction this SM issued for reuse. Call it once
// nothing refers to r any more: for a load after HandleReply consumed its
// reply, for a store once a partition accepted it.
func (s *SM) Release(r *MemReq) { s.reqPool = append(s.reqPool, r) }

func (s *SM) completeOp(op *memOp, now uint64) {
	op.w.blocked = false
	if at := now + s.cfg.L1HitLatency; at > op.w.readyAt {
		op.w.readyAt = at
	}
	s.sleep(op.w, now)
}

// HandleReply processes a load's reply from the memory partition: it fills
// the L1, delivers lane values to every merged waiter, and unblocks warps
// whose memory instruction is now complete.
func (s *SM) HandleReply(rep *MemReq, now uint64) {
	// The freed MSHR entry and the filled line may let a parked LSU retry
	// succeed, and woken warps may issue: tick on this cycle.
	s.next, s.lsuStalled = now, false
	line := rep.LineAddr
	e := s.mshr.Lookup(line)
	if e == nil {
		return // spurious reply; cannot happen in normal operation
	}
	s.mshr.Remove(line)
	s.l1.Fill(line, rep.Data[:], rep.Approx)
	for _, t := range e.Targets {
		op := t.(*memOp)
		deliverLoad(op, op.lineIndex(line), &rep.Data)
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

// line returns the address of op's i-th line: that of its first lane.
func (op *memOp) line(i int) uint64 {
	return lineOf(op.lanes.Addr(bits.TrailingZeros32(op.masks[i])))
}

// lineIndex returns the index of line among op's lines.
func (op *memOp) lineIndex(line uint64) int {
	i := 0
	for op.line(i) != line {
		i++
	}
	return i
}

// deliverLoad writes the words of op's i-th line, data, into the
// destination register of the lanes addressing it.
func deliverLoad(op *memOp, i int, data *[cache.LineSize]byte) {
	ls, regs := op.lanes, op.regs
	for m := op.masks[i]; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		off := ls.Addr(l) % cache.LineSize
		regs[l] = binary.LittleEndian.Uint32(data[off : off+4])
	}
}
