// Package mc implements the paper's lazy memory scheduler: a First-Row
// First-Come-First-Serve (FR-FCFS) memory controller with a re-order pending
// queue, extended by the two proposed units:
//
//   - DMS (delayed memory scheduling): row-miss requests may only trigger a
//     precharge/activate once the oldest request destined to the bank has
//     aged at least Delay cycles in the pending queue, giving the scheduler
//     more visibility of future same-row requests (Section IV-B).
//   - AMS (approximate memory scheduling): the oldest pending request is
//     dropped — answered by the value-prediction unit instead of DRAM — when
//     it is an approximable global read whose row has a visible RBL at most
//     Th_RBL, no pending same-row writes, and the prediction coverage budget
//     is not exhausted (Section IV-C).
//
// Both units come in Static and Dyn(-profiling) variants exactly as in the
// paper.
package mc

import (
	"slices"

	"lazydram/internal/dram"
	"lazydram/internal/fault"
	"lazydram/internal/obs"
)

// ReqState tracks the lifecycle of a request inside the pending queue.
type ReqState uint8

// Request lifecycle states.
const (
	ReqPending ReqState = iota
	ReqServed           // issued to a DRAM bank
	ReqDropped          // dropped by AMS, value-predicted
	ReqFree             // handed back by Controller.Release, awaiting reuse
)

// Request is one 128-byte line request in the memory controller.
type Request struct {
	// ID is assigned by the controller on Push, unique per controller.
	ID uint64
	// Addr is the line-aligned global address.
	Addr uint64
	// Write distinguishes write-backs/fills-for-write from read fills.
	Write bool
	// Approximable marks global reads to programmer-annotated approximable
	// data (the paper's pragma pred_var) that are safe to value-predict.
	Approximable bool
	// Arrival is the memory cycle the request entered the pending queue.
	Arrival uint64
	// Coord is the decoded DRAM coordinate of Addr.
	Coord dram.Coord
	// Faults carries the bit flips the fault model injected into this read's
	// data burst (nil for clean bursts or when injection is off); the fill
	// path applies them to the bytes returned upstream.
	Faults *fault.LineFaults

	state ReqState
	// rq is the request's row queue while it is pending (nil afterwards).
	rq *rowQ

	// stall accumulates the cycle census's head-stall charges per cause
	// (written only when a census is attached). At retirement the controller
	// adds the queue-not-head remainder and the service decomposition, so the
	// vector sums exactly to the request's measured queue+service latency.
	// uint32 bounds a single cause at ~4.3e9 cycles, far beyond any run.
	stall [obs.NumStallCauses]uint32
}

// State returns the request's lifecycle state.
func (r *Request) State() ReqState { return r.state }

// rowQ collects the pending requests destined to one (bank, row) pair, in
// arrival order. A row's requests retire in arrival order — a row hit serves
// the row's oldest request, and an AMS row drop starts at the row's oldest
// and drains the rest in order — so retirement pops the front and reqs holds
// exactly the row's pending requests.
type rowQ struct {
	row              int64
	reqs             []*Request
	pendingWrites    int
	pendingNonApprox int
	dropping         bool
}

func (q *rowQ) push(r *Request) {
	q.reqs = append(q.reqs, r)
	if r.Write {
		q.pendingWrites++
	}
	if !r.Approximable {
		q.pendingNonApprox++
	}
}

// oldest returns the row's oldest pending request, or nil.
func (q *rowQ) oldest() *Request {
	if len(q.reqs) == 0 {
		return nil
	}
	return q.reqs[0]
}

func (q *rowQ) retire(r *Request) {
	if q.reqs[0] != r {
		panic("mc: row queue retired out of arrival order")
	}
	q.reqs = slices.Delete(q.reqs, 0, 1)
	if r.Write {
		q.pendingWrites--
	}
	if !r.Approximable {
		q.pendingNonApprox--
	}
}

// bankQ is the per-bank view of the pending queue.
//
// rows holds the bank's live row queues (pending requests, or an AMS row
// drop in progress) in no particular order and is searched linearly: the
// controller's queue holds at most QueueSize requests spread over all banks,
// so a bank has only a handful of live rows (under 4 on average for SCP
// under Dyn-Both), and a short scan beats hashing. Every pending request
// also points straight at its row queue (Request.rq), and open indexes the
// queue of the bank's open DRAM row, so the scheduler's paths need no search
// at all. Retired row queues go to spare and are reused by the next new row.
type bankQ struct {
	fifo  []*Request // the bank's pending requests, in arrival order
	rows  []*rowQ
	spare []*rowQ
	// open is rows' queue for the bank's open DRAM row (nil when the bank is
	// closed or its open row has no live queue): set at ACT and by a push
	// that creates the open row's queue, cleared at PRE and release.
	// It is never being dropped: AMS does not drop an open row, and a row
	// being dropped has no request that can become a bank head to activate.
	open *rowQ

	// version counts the mutations that can change oldest()'s answer:
	// pushes that give the bank a head, retirements, and AMS row-drop
	// transitions. Every such site goes through Controller.touch, because
	// head() — which the scheduler, the AMS unit and the cycle census all
	// read — trusts an unchanged version to mean an unchanged answer.
	version    uint32
	cenHead    *Request
	cenVersion uint32
}

// row returns the bank's live queue for row, or nil.
func (b *bankQ) row(row int64) *rowQ {
	for _, rq := range b.rows {
		if rq.row == row {
			return rq
		}
	}
	return nil
}

// push appends r; openRow is the bank's open DRAM row, so a queue created
// for it becomes the open index.
func (b *bankQ) push(r *Request, openRow int64) {
	b.fifo = append(b.fifo, r)
	rq := b.row(r.Coord.Row)
	if rq == nil {
		if n := len(b.spare); n > 0 {
			rq = b.spare[n-1]
			b.spare = b.spare[:n-1]
		} else {
			rq = &rowQ{}
		}
		rq.row = r.Coord.Row
		b.rows = append(b.rows, rq)
		if rq.row == openRow {
			b.open = rq
		}
	}
	r.rq = rq
	rq.push(r)
}

// release retires row queue rq, which has no pending requests and no drop in
// progress, to the spare list. Only pending requests dereference their rq
// back-pointer, so no live reference to the recycled queue remains.
func (b *bankQ) release(rq *rowQ) {
	for i, q := range b.rows {
		if q == rq {
			last := len(b.rows) - 1
			b.rows[i] = b.rows[last]
			b.rows[last] = nil
			b.rows = b.rows[:last]
			break
		}
	}
	if b.open == rq {
		b.open = nil
	}
	*rq = rowQ{reqs: rq.reqs[:0]}
	b.spare = append(b.spare, rq)
}

// oldest returns the oldest pending request in the bank whose row is not
// currently being drained by an AMS row drop.
func (b *bankQ) oldest() *Request {
	for _, r := range b.fifo {
		if !r.rq.dropping {
			return r
		}
	}
	return nil
}

// head is oldest() behind the version-stamped cache; the zero value (both
// stamps 0, nil head) is correct for an empty queue.
func (b *bankQ) head() *Request {
	if b.cenVersion != b.version {
		b.cenHead = b.oldest()
		b.cenVersion = b.version
	}
	return b.cenHead
}

// retire removes r from the bank's FIFO and its row queue, releasing the row
// queue once it is empty and not being dropped.
func (b *bankQ) retire(r *Request) {
	i := slices.Index(b.fifo, r)
	b.fifo = slices.Delete(b.fifo, i, i+1)
	rq := r.rq
	r.rq = nil
	rq.retire(r)
	if len(rq.reqs) == 0 && !rq.dropping {
		b.release(rq)
	}
}
