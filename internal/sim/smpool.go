package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// smWorkers is the number of workers the SM phase runs on: two is the only
// size its gain and its trial constants were measured at.
const smWorkers = 2

// Helper timing: a helper spins on the dispatch epoch for up to helperSpin,
// yielding its P every yieldEvery polls so that a runnable goroutine (the
// simulation goroutine at GOMAXPROCS=1, a GC worker) is not held off, and
// then parks until the next dispatch wakes it.
const (
	helperSpin = 50 * time.Microsecond
	yieldEvery = 1024
)

// smPool runs the SM-local work of one cycle (each due SM's reply and
// Advance) on smWorkers goroutines, one barrier per dispatch. The simulation
// goroutine is worker 0: dispatch publishes the phase, works through its own
// items, steals what the helper has not claimed, and returns once every item
// is finished. That barrier gives it happens-before visibility of everything
// the helper wrote, so the serial sections between dispatches (sends, the
// partition ticks, probes, collect) read quiesced state without locks.
//
// Items have a fixed owner (SM i goes to worker i%smWorkers), so the helper
// keeps touching the same SMs' state cycle after cycle, and a worker that
// runs dry steals from the other, so a descheduled helper never stalls the
// cycle. Each worker's queue has one claim word holding the phase tag, the
// next index and the end; an item is claimed by a CAS on that word. A helper
// that wakes late for an old phase fails its CAS against the new tag, so it
// can never take an item of a phase it did not read the parameters of; a
// claimed item keeps its phase open until it is finished, so the queues and
// parameters it reads are not rewritten under it.
//
// A panic in an item does not end the process from the helper goroutine: the
// worker recovers it, counts the item finished, and dispatch re-panics with
// the first such value on worker 0 once the phase's barrier is passed, so
// the caller's recover (exp.Runner fails that run alone) sees it with the
// pool idle.
//
// Determinism does not depend on which worker runs an item: an SM's
// HandleReply and Advance touch only that SM, and everything SMs share goes
// through the interconnect in the serial sections.
type smPool struct {
	run   func(item int, now uint64)
	slots [smWorkers]poolSlot

	// Phase parameters, written by worker 0 before it publishes the tag.
	tag uint32
	now uint64

	// fault holds the first panic value an item of the current phase raised.
	faultMu sync.Mutex
	fault   any

	epoch   atomic.Uint32 // tag of the latest dispatch
	pending atomic.Int64  // items of the current phase not yet finished
	parked  atomic.Int32  // helpers blocked on their wake channel
	closed  atomic.Bool
	exited  sync.WaitGroup
}

// poolSlot is one worker's queue, padded so that workers claiming from
// their own queues do not share a cache line.
type poolSlot struct {
	claim atomic.Uint64 // tag<<32 | next<<16 | end
	items []int32
	wake  chan struct{}
	_     [64]byte
}

// newSMPool starts the helper goroutines running items through run. Callers
// must close() the pool to stop them.
func newSMPool(run func(item int, now uint64)) *smPool {
	sp := &smPool{run: run}
	sp.exited.Add(smWorkers - 1)
	for w := 1; w < smWorkers; w++ {
		sp.slots[w].wake = make(chan struct{}, 1)
		go sp.helper(w)
	}
	return sp
}

// add queues item on its owner's queue for the next dispatch.
func (sp *smPool) add(item int) {
	q := &sp.slots[item%smWorkers]
	q.items = append(q.items, int32(item))
}

// dispatch runs the queued items as one phase at cycle now and returns once
// all of them are finished, re-panicking if one of them panicked.
func (sp *smPool) dispatch(now uint64) {
	sp.tag++
	sp.now = now
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
	sp.drain(0, sp.tag)
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
// queue first, then the other workers' queues in turn.
func (sp *smPool) drain(w int, tag uint32) {
	done := int64(0)
	for k := 0; k < smWorkers; k++ {
		q := &sp.slots[(w+k)%smWorkers]
		for {
			c := q.claim.Load()
			next, end := c>>16&0xffff, c&0xffff
			if uint32(c>>32) != tag || next >= end {
				break
			}
			if !q.claim.CompareAndSwap(c, c+1<<16) {
				continue
			}
			sp.runItem(int(q.items[next]))
			done++
		}
	}
	if done != 0 {
		sp.pending.Add(-done)
	}
}

// runItem runs one claimed item, recovering a panic into the pool's fault.
func (sp *smPool) runItem(item int) {
	defer func() {
		if p := recover(); p != nil {
			sp.faultMu.Lock()
			if sp.fault == nil {
				sp.fault = p
			}
			sp.faultMu.Unlock()
		}
	}()
	sp.run(item, sp.now)
}

// helper is worker w's goroutine: it waits for each new dispatch and drains
// it, until the pool closes.
func (sp *smPool) helper(w int) {
	defer sp.exited.Done()
	seen := uint32(0)
	for {
		tag, ok := sp.await(w, seen)
		if !ok {
			return
		}
		seen = tag
		sp.drain(w, tag)
	}
}

// await returns the tag of the first dispatch after seen, spinning for up to
// helperSpin and then parking; ok is false once the pool is closed.
func (sp *smPool) await(w int, seen uint32) (tag uint32, ok bool) {
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
func (sp *smPool) wakeAll() {
	for w := 1; w < smWorkers; w++ {
		select {
		case sp.slots[w].wake <- struct{}{}:
		default:
		}
	}
}

// close stops the helpers and waits for them to exit. The pool must be idle
// (no dispatch in flight); safe to call on a nil pool and more than once.
func (sp *smPool) close() {
	if sp == nil || sp.closed.Swap(true) {
		return
	}
	sp.wakeAll()
	sp.exited.Wait()
}
