package mc

import (
	"math/bits"

	"lazydram/internal/dram"
	"lazydram/internal/obs"
)

// Cycle census (obs.Census) hooks: once per Tick, after this cycle's
// scheduling, the controller charges every bank's still-pending scheduling
// head one cycle of exactly one stall cause, and classifies every bank's
// residency state. Running after issue means the cycle a request is served
// or dropped is never head-charged (the request already retired), and a
// request is never charged on its push cycle (pushes happen before the Tick
// whose pass first sees them, with Arrival stamped one cycle earlier) — so
// the accumulated head charges are strictly less than the measured queue
// latency and the remainder, charged to StallQueued at retirement, is the
// time spent waiting behind other work. That construction is what makes the
// Σ-invariant (per-cause cycles == queue+service latency) exact rather than
// approximate; CheckInvariants and the sim-level census tests enforce it.
//
// The per-cycle classification is evaluated lazily as spans: every DRAM
// timing constraint is an absolute "ready at" cycle that only ever moves
// later, and only via commands the controller itself issues, so a bank's
// classification is constant from the cycle it is computed until the
// earliest of (a) its own expiry horizon — the blocking timestamp the
// classifier read, (b) a mutation of the bank's queue (push, retire, AMS
// drop toggle) or a command to the bank — those sites eagerly set the
// bank's bit in Controller.cenDirty, (c) for arbitration-dependent causes,
// a channel command that moves the state they lost to — the column/ACT
// issue sites fold cenColMask/cenActMask into the dirty set, and (d) a
// change of the refresh flag or the DMS delay (re-classify all). censusTick
// therefore touches only dirty or expired banks and charges whole spans at
// their close. The cycle-by-cycle evaluation is kept as the executable
// specification in census_equiv_test.go (censusTickRef), and
// TestCensusSpanEquivalence pins the two to identical output. Open spans
// are closed by censusRetire (the span's head is about to fold its charges)
// and by CensusFinish at end of run; mid-run readers (live metrics) see
// totals that lag by at most the open span, like any between-sample gauge.

// cenOpen marks a span with no self-expiry: only a dirty mark or a flush
// can close it.
const cenOpen = ^uint64(0)

// Span sensitivity to channel-level command state: a ready head that lost
// arbitration stays correctly classified only while the channel state that
// could block it next cycle holds still. cenSensCol tracks the column bus
// (row-hit heads), cenSensAct the tRRD ACT spacing (activate-ready heads);
// the bank joins the matching controller mask so the issue sites can dirty
// exactly the affected spans. Bank-local causes are cenSensNone: their
// state moves only via the bank's own dirty marks or their expiry horizon.
const (
	cenSensNone uint8 = iota
	cenSensCol
	cenSensAct
)

// cenSpan is one bank's open census span: the classification in force since
// start. The span's expiry horizon lives in the controller's dense cenUntil
// array (scanned every time the minimum fires, so it must stay compact);
// cenUntil[b]==0 marks an invalid span (nothing open), and validity otherwise
// rests on the controller's eager dirty marks, not on stamps stored here.
// serv1 marks a span opened on a command cycle: its first cycle's residency
// is BankServing (the command itself) and the rest follow state, which the
// classifier read from the post-command timing — valid from the command
// cycle onward, so one span covers both without an extra re-classify.
type cenSpan struct {
	head  *Request
	start uint64
	cause obs.StallCause
	state obs.BankState
	serv1 bool
}

// censusTick runs the census for cycle now. The quiescent-cycle guard is
// small enough to inline into Tick: a cycle with no dirty bank, no reached
// horizon, and no refresh transition provably extends every open span, and
// costs three compares (skipped cycles are bulk-accounted into BankCycles
// by the next pass or by CensusFinish). Delay changes mark every bank dirty
// at the Tick site, so they need no compare here; the reference hook keeps
// cenNextUntil at its zero value so every cycle takes the pass.
func (c *Controller) censusTick(now uint64, refreshing bool) {
	if c.cenDirty == 0 && now < c.cenNextUntil && refreshing == c.cenRefreshing {
		return
	}
	c.censusPass(now, refreshing)
}

// censusPass is the non-quiescent census pass: it settles the bulk cycle
// account, then re-classifies exactly the dirty and horizon-expired banks.
func (c *Controller) censusPass(now uint64, refreshing bool) {
	delay := uint64(c.Delay())
	if c.cenRef != nil {
		c.cenRef(now, delay, refreshing)
		return
	}
	if c.cenTicked == cenOpen {
		c.cenTicked = now
	}
	c.cen.AddCycles(now + 1 - c.cenTicked)
	c.cenTicked = now + 1
	if refreshing != c.cenRefreshing || delay != c.cenDelay {
		// Refresh opening/closing rewrites every bank's row and activate
		// state; a Dyn-DMS delay change moves every head's age gate.
		c.cenRefreshing = refreshing
		c.cenDelay = delay
		c.cenDirty = c.cenAllMask
	}
	dirty := c.cenDirty
	c.cenDirty = 0
	work := dirty
	next := c.cenNextUntil
	if now >= next {
		// At least one horizon fired (or the min is stale after a dirty
		// bank re-classified longer): collect every expired span and rebuild
		// the minimum over the survivors. cenUntil is a dense array so this
		// scan touches two cache lines, not one per span.
		next = cenOpen
		for b, u := range c.cenUntil {
			if now >= u {
				work |= 1 << uint(b)
			} else if u < next {
				next = u
			}
		}
	}
	for work != 0 {
		b := bits.TrailingZeros64(work)
		bit := uint64(1) << uint(b)
		work &^= bit
		s := &c.cenSpans[b]
		if dirty&bit == 0 && c.cenUntil[b] != 0 && s.state == obs.BankTimingWait {
			// Pure horizon expiry on a clean span. For the two
			// channel-horizon causes the deadline can move later while the
			// span is open (each command pushes the bus / tRRD spacing
			// further out) without changing the classification — extend in
			// place instead of reclassifying.
			var nu uint64
			switch s.cause {
			case obs.StallBusTurn:
				nu = c.ch.BusReadyAt(b, s.head.Write)
			case obs.StallTRRD:
				nu = c.ch.ActAnyReadyAt()
			}
			if nu > now {
				c.cenUntil[b] = nu
				if nu < next {
					next = nu
				}
				continue
			}
		}
		c.cenFlush(b, now)
		c.cenClassify(b, now, delay, refreshing)
		if u := c.cenUntil[b]; u < next {
			next = u
		}
	}
	c.cenNextUntil = next
}

// cenFlush closes bank b's open span at cycle now, charging the covered
// cycles [start, now) to the span's head cause and residency state in bulk.
func (c *Controller) cenFlush(b int, now uint64) {
	s := &c.cenSpans[b]
	if c.cenUntil[b] != 0 && now > s.start {
		n := now - s.start
		if s.head != nil {
			s.head.stall[s.cause] += uint32(n)
		}
		if s.serv1 {
			c.cen.AddBankCycles(b, obs.BankServing, 1)
			n--
		}
		if n > 0 {
			c.cen.AddBankCycles(b, s.state, n)
		}
	}
	c.cenUntil[b] = 0
	s.head = nil
	s.start = now
	bit := ^(uint64(1) << uint(b))
	c.cenColMask &= bit
	c.cenActMask &= bit
}

// cenClassify opens a new span for bank b at cycle now: it classifies the
// bank exactly like one pass of the per-cycle reference would, records the
// horizon under which that classification stays valid, and joins the
// channel-sensitivity mask matching the cause (the preceding cenFlush
// cleared both masks).
func (c *Controller) cenClassify(b int, now, delay uint64, refreshing bool) {
	s := &c.cenSpans[b]
	bq := &c.banks[b]
	s.start = now
	until := cenOpen
	r := bq.head()
	s.head = r
	if r != nil {
		var sens uint8
		s.cause, until, sens = c.classifyHead(r, b, now, delay, refreshing)
		switch sens {
		case cenSensCol:
			c.cenColMask |= 1 << uint(b)
		case cenSensAct:
			c.cenActMask |= 1 << uint(b)
		}
	}
	// On a command cycle the classification above already read the
	// post-command timing state, so it is valid from this very cycle; the
	// serv1 flag routes the first cycle's residency to BankServing at flush
	// instead of opening a throwaway one-cycle span.
	s.serv1 = b == c.cenBank
	switch {
	case r != nil:
		if s.cause == obs.StallDMSHold {
			s.state = obs.BankDMSHeld
		} else {
			s.state = obs.BankTimingWait
		}
	case c.ch.OpenRow(b) != dram.NoRow:
		s.state = obs.BankOpenIdle
	case !c.ch.ActBankReady(b, now):
		s.state = obs.BankPrecharging
		until = c.ch.ActReadyAt(b)
	default:
		s.state = obs.BankIdle
	}
	c.cenUntil[b] = until
}

// CensusFinish closes every bank's open census span; end is one past the
// last ticked cycle, so the final spans cover exactly the elapsed
// bank-cycles. Call once before reading census summaries or invariants (the
// sim partitions do this in their drain path); it is idempotent and a no-op
// when the census is off.
func (c *Controller) CensusFinish(end uint64) {
	if c.cen == nil {
		return
	}
	if c.cenTicked != cenOpen && end > c.cenTicked {
		c.cen.AddCycles(end - c.cenTicked)
		c.cenTicked = end
	}
	for b := range c.cenSpans {
		c.cenFlush(b, end)
	}
}

// classifyHead attributes one blocked cycle of bank b's scheduling head r to
// a stall cause. It reads the channel's post-issue timing state, so a head
// that was ready but lost this cycle's one-command arbitration shows up as
// blocked by the command that won (e.g. the winning burst's tCCD) or, when
// nothing explains the block, as StallQueued.
//
// until is the first cycle the classification could change without a queue
// mutation or a command to this bank: the blocking timestamp for the timer
// causes (those move only via commands, which dirty the bank), cenOpen when
// only a dirty mark can end the span. sens marks the
// ready-but-lost-arbitration causes, which must re-classify after a command
// that moves the channel state they depend on (column bus or tRRD spacing).
func (c *Controller) classifyHead(r *Request, b int, now, delay uint64, refreshing bool) (cause obs.StallCause, until uint64, sens uint8) {
	if refreshing {
		// The refresh-flag flush bounds the span.
		return obs.StallRefresh, cenOpen, cenSensNone
	}
	or := c.ch.OpenRow(b)
	if or != dram.NoRow && or == r.Coord.Row {
		// Row hit waiting on column timing.
		if !c.ch.ColBankReady(b, r.Write, now) {
			return obs.StallTRCD, c.ch.ColReadyAt(b, r.Write), cenSensNone
		}
		ready := false
		if r.Write {
			ready = c.ch.CanWrite(b, now)
		} else {
			ready = c.ch.CanRead(b, now)
		}
		if !ready {
			// The bus horizon can move later while the span is open, but a
			// busier bus is still StallBusTurn; the expiry extends in place.
			return obs.StallBusTurn, c.ch.BusReadyAt(b, r.Write), cenSensNone
		}
		return obs.StallQueued, cenOpen, cenSensCol
	}
	// Row-miss path: the head needs a precharge and/or an activate, gated by
	// the DMS age criterion exactly like issue()'s miss pass.
	if now-r.Arrival < delay {
		return obs.StallDMSHold, r.Arrival + delay, cenSensNone
	}
	if or != dram.NoRow {
		// Conflict: under the open-row policy the row only closes once its
		// pending hits drained — until then the head is queued behind them.
		// Every drained hit retires on this bank, bumping version.
		if c.cfg.Policy != FCFS && c.banks[b].open != nil {
			return obs.StallQueued, cenOpen, cenSensNone
		}
		if !c.ch.CanPrecharge(b, now) {
			return obs.StallTRAS, c.ch.PreReadyAt(b), cenSensNone
		}
		// Ready to precharge but another bank's command won arbitration;
		// both CanPrecharge inputs are bank-local, so no channel stamp.
		return obs.StallQueued, cenOpen, cenSensNone
	}
	if !c.ch.ActBankReady(b, now) {
		return obs.StallTRP, c.ch.ActReadyAt(b), cenSensNone
	}
	if !c.ch.CanActivate(b, now) {
		// nextActAny cannot move before it elapses: moving it requires an
		// ACT, which is only legal once the current horizon has passed.
		return obs.StallTRRD, c.ch.ActAnyReadyAt(), cenSensNone
	}
	return obs.StallQueued, cenOpen, cenSensAct
}

// censusRetire folds one retiring request into the exact decomposition:
// the accumulated head charges, the queue-not-head remainder, and the
// deterministic service split (CL/WL column access + tCCD burst for served
// requests, the value-predicted reply latency for AMS drops). The bank's
// open span is flushed first, because the retiring request may be its head
// and the span's charges belong inside this decomposition.
func (c *Controller) censusRetire(r *Request, now, ready uint64, dropped bool) {
	c.cenFlush(r.Coord.Bank, now)
	queue := now - r.Arrival
	var vec [obs.NumStallCauses]uint64
	var head uint64
	for i, n := range r.stall {
		vec[i] = uint64(n)
		head += uint64(n)
	}
	vec[obs.StallQueued] += queue - head
	service := ready - now
	if dropped {
		vec[obs.StallVP] += service
	} else {
		burst := c.ch.Config().Timing.CCD
		if burst > service {
			burst = service
		}
		vec[obs.StallCAS] += service - burst
		vec[obs.StallBurst] += burst
	}
	c.cen.Retire(queue+service, &vec)
}
