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
// earliest of (a) its own expiry horizon — the at that Controller.blocker
// returned, (b) a mutation of the bank's queue (push, retire, AMS
// drop toggle) or a command to the bank — those sites eagerly set the
// bank's bit in Controller.cenDirty, (c) for arbitration-dependent causes,
// a channel command that moves the state they lost to — the column/ACT
// issue sites fold cenColMask/cenActMask into the dirty set, and (d) a
// change of the DMS delay (Tick marks every bank dirty). censusTick
// therefore touches only dirty or expired banks and charges whole spans at
// their close. The cycle-by-cycle evaluation is kept as the executable
// specification in census_equiv_test.go (censusTickRef), and
// TestCensusSpanEquivalence pins the two to identical output. Open spans
// are closed by censusRetire (the span's head is about to fold its charges)
// and by CensusFinish at end of run; mid-run readers (live metrics) see
// totals that lag by at most the open span, like any between-sample gauge.

// cenOpen marks a horizon with no self-expiry: blocker returns it for a
// cause that only a queue mutation or a command can end, and a census span
// under it closes only at a dirty mark or a flush.
const cenOpen = ^uint64(0)

// cenSpan is one bank's open census span: the classification in force since
// start. The span's expiry horizon lives in the controller's dense cenUntil
// array (scanned every time the minimum fires, so it must stay compact);
// cenUntil[b]==0 marks an invalid span (nothing open), and validity otherwise
// rests on the controller's eager dirty marks, not on stamps stored here.
// serv1 marks a span opened on a command cycle: its first cycle's residency
// is BankServing (the command itself) and the rest follow state, which
// blocker read from the post-command timing — valid from the command
// cycle onward, so one span covers both without an extra re-classify.
type cenSpan struct {
	head  *Request
	start uint64
	cause obs.StallCause
	state obs.BankState
	serv1 bool
}

// censusTick runs the census for cycle now. The quiescent-cycle guard is
// small enough to inline into Tick: a cycle with no dirty bank and no
// reached horizon provably extends every open span, and costs two compares
// (skipped cycles are bulk-accounted into BankCycles by the next pass or by
// CensusFinish). Delay changes mark every bank dirty at the Tick site, so
// they need no compare here; the reference hook keeps cenNextUntil at its
// zero value so every cycle takes the pass.
func (c *Controller) censusTick(now uint64) {
	if c.cenDirty == 0 && now < c.cenNextUntil {
		return
	}
	c.censusPass(now)
}

// censusPass is the non-quiescent census pass: it settles the bulk cycle
// account, then re-classifies exactly the dirty and horizon-expired banks.
func (c *Controller) censusPass(now uint64) {
	delay := uint64(c.Delay())
	if c.cenRef != nil {
		c.cenRef(now, delay)
		return
	}
	if c.cenTicked == cenOpen {
		c.cenTicked = now
	}
	c.cen.AddCycles(now + 1 - c.cenTicked)
	c.cenTicked = now + 1
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
		c.cenClassify(b, now, delay, dirty&bit == 0)
		next = min(next, c.cenUntil[b])
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

// cenClassify classifies bank b at cycle now exactly like one pass of the
// per-cycle reference would, through blocker on the bank head (or on the
// bank itself when it has none). A clean span (no dirty mark since it
// opened) whose horizon expired while the classification still holds — a
// bus or tRRD deadline that later commands pushed out — is extended in
// place; any other outcome closes the span and opens a new one, under the
// horizon blocker reported. A ready head that lost this cycle's arbitration
// holds its span until a dirty mark, and a column or activate head joins
// the mask of the channel state it lost to (the preceding cenFlush cleared
// both masks).
func (c *Controller) cenClassify(b int, now, delay uint64, clean bool) {
	r := c.banks[b].head()
	cmd, cause, until, _ := c.blocker(r, b, now, delay)
	state := obs.BankTimingWait
	switch {
	case r == nil && c.ch.OpenRow(b) != dram.NoRow:
		state = obs.BankOpenIdle
	case r == nil && until > now:
		state = obs.BankPrecharging
	case r == nil:
		state = obs.BankIdle
	case cause == obs.StallDMSHold:
		state = obs.BankDMSHeld
	}
	s := &c.cenSpans[b]
	if clean && c.cenUntil[b] != 0 && until > now && cause == s.cause && state == s.state {
		c.cenUntil[b] = until
		return
	}
	c.cenFlush(b, now)
	// On a command cycle blocker already read the post-command timing state,
	// so the classification is valid from this very cycle; the serv1 flag
	// routes the first cycle's residency to BankServing at flush instead of
	// opening a throwaway one-cycle span.
	*s = cenSpan{head: r, start: now, cause: cause, state: state, serv1: b == c.cenBank}
	if until <= now {
		until = cenOpen
		switch cmd {
		case obs.CmdRD, obs.CmdWR:
			c.cenColMask |= 1 << uint(b)
		case obs.CmdACT:
			c.cenActMask |= 1 << uint(b)
		}
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
