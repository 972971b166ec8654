package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// phaseKind names the work a pool dispatch runs: one item per memory
// partition (memory or core clock side), or one per due SM.
type phaseKind uint8

const (
	phaseMem phaseKind = iota
	phaseCore
	phaseSM
)

// Helper timing: a helper spins on the dispatch epoch for up to helperSpin,
// yielding its P every yieldEvery polls so that a runnable goroutine (the
// simulation goroutine at GOMAXPROCS=1, a GC worker) is not held off, and
// then parks until the next dispatch wakes it.
const (
	helperSpin = 50 * time.Microsecond
	yieldEvery = 1024
)

// shardPool runs the SM-local work and the partition ticks of one cycle on a
// persistent pool of goroutines, one barrier per dispatch. The simulation
// goroutine is worker 0: dispatch publishes the phase, works through its own
// items, steals what the helpers have not claimed, and returns once every
// item is finished. That barrier gives it happens-before visibility of
// everything the helpers wrote, so the serial sections between dispatches
// (sends, probes, collect) read quiesced state without locks.
//
// Items have a fixed owner (item owner i%workers: SM i, partition i), so a
// helper keeps touching the same SMs' state cycle after cycle, and a worker
// that runs dry steals from the others in turn, so a descheduled helper
// never stalls the cycle. Each worker's queue has one claim word holding the
// phase tag, the next index and the end; an item is claimed by a CAS on that
// word. A helper that wakes late for an old phase fails its CAS against the
// new tag, so it can never take an item of a phase it did not read the
// parameters of; a claimed item keeps its phase open until it is finished,
// so the queues and parameters it reads are not rewritten under it.
//
// A panic in an item does not end the process from a helper goroutine: the
// worker recovers it, counts the item finished, and dispatch re-panics with
// the first such value on worker 0 once the phase's barrier is passed, so
// the caller's recover (exp.Runner fails that run alone) sees it with the
// pool idle.
//
// Determinism does not depend on which worker runs an item: items of one
// phase never share mutable state (an SM's HandleReply and Advance touch
// only that SM; a partition owns its controller, DRAM channel, stats, fault
// injector and obs shard, and touches only its own channel's lines of the
// memory image), and everything they share goes through the interconnect in
// the serial sections.
type shardPool struct {
	workers int
	run     func(kind phaseKind, item int, now uint64)
	slots   []poolSlot

	// Phase parameters, written by worker 0 before it publishes the tag.
	tag   uint32
	kind  phaseKind
	now   uint64
	timed bool

	// span is the number of workers a phase runs on, set by begin: items
	// are owned by worker item%span, and helpers at or above span sit the
	// phase out. Helpers read it through active.
	span   int
	active atomic.Int32

	// fault holds the first panic value an item of the current phase raised.
	faultMu sync.Mutex
	fault   any

	epoch   atomic.Uint32 // tag of the latest dispatch
	pending atomic.Int64  // items of the current phase not yet finished
	parked  atomic.Int32  // helpers blocked on their wake channel
	closed  atomic.Bool
	exited  sync.WaitGroup

	// timedDispatches counts the timed dispatches: memory ticks sampled by
	// the host-phase profiler (census runs only).
	timedDispatches uint64
}

// poolSlot is one worker's queue, padded so that workers claiming from
// their own queues do not share a cache line.
type poolSlot struct {
	claim atomic.Uint64 // tag<<32 | next<<16 | end
	items []int32
	wake  chan struct{}
	// busyNS is the worker's cumulative wall-clock on timed dispatches.
	// Only the owner writes it, inside a dispatch, before it reports its
	// items finished; worker 0 reads it between dispatches.
	busyNS uint64
	_      [64]byte
}

// newShardPool starts workers-1 helper goroutines running items through
// run. Callers must close() the pool to stop them.
func newShardPool(workers int, run func(kind phaseKind, item int, now uint64)) *shardPool {
	sp := &shardPool{workers: workers, span: workers, run: run, slots: make([]poolSlot, workers)}
	sp.exited.Add(workers - 1)
	for w := 1; w < workers; w++ {
		sp.slots[w].wake = make(chan struct{}, 1)
		go sp.helper(w)
	}
	return sp
}

// begin opens the next phase on the first span workers (at most all of
// them); add and addRange then queue its items.
func (sp *shardPool) begin(span int) {
	sp.span = max(1, min(span, sp.workers))
}

// add queues item on its owner's queue for the next dispatch.
func (sp *shardPool) add(item int) {
	q := &sp.slots[item%sp.span]
	q.items = append(q.items, int32(item))
}

// addRange queues items 0..n-1.
func (sp *shardPool) addRange(n int) {
	for i := 0; i < n; i++ {
		sp.add(i)
	}
}

// dispatch runs the queued items as one phase of the given kind at cycle
// now and returns once all of them are finished, re-panicking if one of
// them panicked. timed clocks each worker's span into its busyNS.
func (sp *shardPool) dispatch(kind phaseKind, now uint64, timed bool) {
	sp.tag++
	sp.active.Store(int32(sp.span))
	sp.kind, sp.now, sp.timed = kind, now, timed
	if timed {
		sp.timedDispatches++
	}
	total := 0
	for w := range sp.slots {
		total += len(sp.slots[w].items)
	}
	sp.pending.Store(int64(total))
	for w := range sp.slots {
		q := &sp.slots[w]
		q.claim.Store(uint64(sp.tag)<<32 | uint64(len(q.items)))
	}
	sp.epoch.Store(sp.tag)
	if sp.parked.Load() > 0 {
		sp.wakeAll()
	}
	sp.drain(0, sp.tag, sp.span)
	for i := 1; sp.pending.Load() != 0; i++ {
		if i%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
	for w := range sp.slots {
		sp.slots[w].items = sp.slots[w].items[:0]
	}
	if p := sp.fault; p != nil {
		sp.fault = nil
		panic(p)
	}
}

// drain runs, as worker w, the items of phase tag it can claim: its own
// queue first, then the other queues of the phase's span workers in turn.
// It reports the items it finished after timing them, so the dispatch that
// waits for them sees the timing.
func (sp *shardPool) drain(w int, tag uint32, span int) {
	var t0 time.Time
	done := int64(0)
	for k := 0; k < span; k++ {
		q := &sp.slots[(w+k)%span]
		for {
			c := q.claim.Load()
			next, end := c>>16&0xffff, c&0xffff
			if uint32(c>>32) != tag || next >= end {
				break
			}
			if !q.claim.CompareAndSwap(c, c+1<<16) {
				continue
			}
			if done == 0 && sp.timed {
				t0 = time.Now()
			}
			sp.runItem(int(q.items[next]))
			done++
		}
	}
	if done == 0 {
		return
	}
	if sp.timed {
		sp.slots[w].busyNS += uint64(time.Since(t0))
	}
	sp.pending.Add(-done)
}

// runItem runs one claimed item, recovering a panic into the pool's fault.
func (sp *shardPool) runItem(item int) {
	defer func() {
		if p := recover(); p != nil {
			sp.faultMu.Lock()
			if sp.fault == nil {
				sp.fault = p
			}
			sp.faultMu.Unlock()
		}
	}()
	sp.run(sp.kind, item, sp.now)
}

// helper is worker w's goroutine: it waits for each new dispatch and drains
// it, until the pool closes.
func (sp *shardPool) helper(w int) {
	defer sp.exited.Done()
	seen := uint32(0)
	for {
		tag, ok := sp.await(w, seen)
		if !ok {
			return
		}
		seen = tag
		if span := int(sp.active.Load()); w < span {
			sp.drain(w, tag, span)
		}
	}
}

// await returns the tag of the first dispatch after seen, spinning for up to
// helperSpin and then parking; ok is false once the pool is closed.
func (sp *shardPool) await(w int, seen uint32) (tag uint32, ok bool) {
	var start time.Time
	for i := 1; ; i++ {
		if tag = sp.epoch.Load(); tag != seen {
			return tag, true
		}
		if i%yieldEvery != 0 {
			continue
		}
		if sp.closed.Load() {
			return 0, false
		}
		runtime.Gosched()
		if start.IsZero() {
			start = time.Now()
		}
		if time.Since(start) < helperSpin {
			continue
		}
		// Park. The dispatch stores the epoch before it reads parked, and
		// this helper counts itself parked before it re-reads the epoch, so
		// at least one of the two sees the other: no wake-up is lost. A
		// stale token only costs one more pass through the loop.
		sp.parked.Add(1)
		if sp.epoch.Load() == seen && !sp.closed.Load() {
			<-sp.slots[w].wake
		}
		sp.parked.Add(-1)
		start = time.Time{}
	}
}

// wakeAll hands every helper a wake token (dropped if one is pending).
func (sp *shardPool) wakeAll() {
	for w := 1; w < sp.workers; w++ {
		select {
		case sp.slots[w].wake <- struct{}{}:
		default:
		}
	}
}

// close stops the helpers and waits for them to exit. The pool must be idle
// (no dispatch in flight); safe to call on a nil pool and more than once.
func (sp *shardPool) close() {
	if sp == nil || sp.closed.Swap(true) {
		return
	}
	sp.wakeAll()
	sp.exited.Wait()
}
