package mc

import (
	"fmt"

	"lazydram/internal/dram"
	"lazydram/internal/fault"
	"lazydram/internal/obs"
	"lazydram/internal/stats"
)

// Mode selects a scheduling-unit variant.
type Mode uint8

// Unit modes.
const (
	Off Mode = iota
	Static
	Dyn
)

func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Static:
		return "static"
	case Dyn:
		return "dyn"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Scheme configures the lazy scheduler: which DMS/AMS variants run and their
// parameters. The zero value is the plain FR-FCFS baseline.
type Scheme struct {
	DMS Mode
	// StaticDelay is the DMS(X) delay in memory cycles for Static DMS
	// (the paper uses 128).
	StaticDelay int
	AMS         Mode
	// StaticThRBL is the AMS(Th_RBL) threshold for Static AMS (paper: 8).
	StaticThRBL int
	// CoverageTarget is the user-defined prediction-coverage cap
	// (paper: 0.10).
	CoverageTarget float64
}

// Named schemes from the paper's evaluation (Figure 12).
var (
	Baseline   = Scheme{}
	StaticDMS  = Scheme{DMS: Static, StaticDelay: 128}
	DynDMS     = Scheme{DMS: Dyn, StaticDelay: 128}
	StaticAMS  = Scheme{AMS: Static, StaticThRBL: 8, CoverageTarget: 0.10}
	DynAMS     = Scheme{AMS: Dyn, StaticThRBL: 8, CoverageTarget: 0.10}
	StaticBoth = Scheme{DMS: Static, StaticDelay: 128, AMS: Static, StaticThRBL: 8, CoverageTarget: 0.10}
	DynBoth    = Scheme{DMS: Dyn, StaticDelay: 128, AMS: Dyn, StaticThRBL: 8, CoverageTarget: 0.10}
)

// Name returns the scheme's display name as used in the paper's figures.
func (s Scheme) Name() string {
	switch {
	case s.DMS == Off && s.AMS == Off:
		return "Baseline"
	case s.DMS == Static && s.AMS == Off:
		if s.StaticDelay != 128 {
			return fmt.Sprintf("DMS(%d)", s.StaticDelay)
		}
		return "Static-DMS"
	case s.DMS == Dyn && s.AMS == Off:
		return "Dyn-DMS"
	case s.DMS == Off && s.AMS == Static:
		if s.StaticThRBL != 8 {
			return fmt.Sprintf("AMS(%d)", s.StaticThRBL)
		}
		return "Static-AMS"
	case s.DMS == Off && s.AMS == Dyn:
		return "Dyn-AMS"
	case s.DMS == Static && s.AMS == Static:
		return "Static-DMS+Static-AMS"
	case s.DMS == Dyn && s.AMS == Dyn:
		return "Dyn-DMS+Dyn-AMS"
	default:
		return fmt.Sprintf("DMS=%v+AMS=%v", s.DMS, s.AMS)
	}
}

// Policy selects the first-order scheduling policy. The paper's baseline is
// FR-FCFS with an open-row policy; FCFS (no hit-first reordering) and
// closed-row variants are provided as comparison baselines for the paper's
// Section II-C discussion.
type Policy uint8

// Scheduling policies.
const (
	// FRFCFS: row hits first, then oldest; rows stay open (paper baseline).
	FRFCFS Policy = iota
	// FCFS: per-bank strict arrival order, open-row policy.
	FCFS
	// FRFCFSClosedRow: FR-FCFS, but a row is precharged as soon as it has no
	// pending requests.
	FRFCFSClosedRow
)

func (p Policy) String() string {
	switch p {
	case FRFCFS:
		return "FR-FCFS"
	case FCFS:
		return "FCFS"
	case FRFCFSClosedRow:
		return "FR-FCFS/closed-row"
	default:
		return "Policy(?)"
	}
}

// Config configures one memory controller.
type Config struct {
	// QueueSize is the pending-queue capacity (paper baseline: 128).
	QueueSize int
	// Policy is the first-order scheduling policy (default FRFCFS).
	Policy Policy
	// VPLatencyCycles is the memory-cycle latency of a value-predicted reply.
	VPLatencyCycles uint64
	// ProfileWindow is the Dyn-DMS/Dyn-AMS sampling window in memory cycles
	// (the paper uses PaperProfileWindow; the default is scaled to the
	// repository's scaled-down workloads).
	ProfileWindow uint64
	Scheme        Scheme
}

// DefaultConfig mirrors the paper's baseline controller.
func DefaultConfig() Config {
	return Config{QueueSize: 128, VPLatencyCycles: 2, ProfileWindow: DefaultProfileWindow}
}

// CompletionFunc receives finished requests. approx reports that the request
// was dropped by AMS and must be value-predicted; readyAt is the memory cycle
// the reply data is available at the controller. The request has left every
// controller queue by then; the receiver owns it until it hands it back with
// Controller.Release, after which it must not touch it again.
type CompletionFunc func(req *Request, approx bool, readyAt uint64)

// VPReadyFunc reports whether the value-prediction unit is warmed up (the
// paper warms the L2 before enabling AMS).
type VPReadyFunc func() bool

// Controller is one memory channel's scheduler: pending queue + FR-FCFS +
// DMS/AMS units in front of a dram.Channel.
type Controller struct {
	cfg        Config
	ch         *dram.Channel
	st         *stats.Mem
	onComplete CompletionFunc
	vpReady    VPReadyFunc

	banks  []bankQ
	live   int // pending requests across banks
	nextID uint64
	dms    *dmsUnit
	ams    *amsUnit
	now    uint64
	tr     *obs.Tracer // nil unless request-lifecycle tracing is enabled

	aud   *obs.AuditLog // nil unless the decision audit is enabled
	audCh int           // channel tag stamped on audited decisions

	inj *fault.Injector // nil unless fault injection is enabled

	cen *obs.Census // nil unless the cycle census is enabled
	// cenBank is the bank a DRAM command issued to this cycle (-1 none); the
	// census pass uses it to classify that bank as serving.
	cenBank int
	// cenSpans holds each bank's open census span (allocated by SetCensus).
	cenSpans []cenSpan
	// cenUntil holds each open span's expiry horizon (0 = no span open),
	// kept dense and separate from cenSpans so the censusPass expiry scan
	// reads two cache lines instead of one per span.
	cenUntil []uint64
	// cenDirty is the set of banks whose open span must re-classify: every
	// queue mutation and command site marks the affected bank eagerly, and
	// column/ACT commands fold in cenColMask/cenActMask — the banks whose
	// span cause depends on the channel's bus state (a ready row-hit head
	// that lost arbitration) or tRRD spacing (a ready activate). Bank-local
	// causes carry their own expiry horizon instead; cenNextUntil is the
	// earliest horizon across all open spans. A cycle with no dirty bank and
	// no reached horizon provably extends every span (a Dyn-DMS delay change
	// marks every bank dirty). Maintained unconditionally — an OR costs
	// nothing.
	cenDirty   uint64
	cenColMask uint64
	cenActMask uint64
	// cenAllMask has one bit per bank.
	cenAllMask   uint64
	cenNextUntil uint64
	// cenTicked is one past the last cycle settled into BankCycles (cenOpen
	// until the first pass); quiescent cycles are accounted in bulk when the
	// next pass — or CensusFinish — observes the gap.
	cenTicked uint64
	// cenRef, when set, replaces the span census with a per-cycle
	// reference pass; only the span-equivalence test sets it.
	cenRef func(now, delay uint64)
	// activity counts controller progress events (pushes, issued commands,
	// drops); it lets the partition census detect cycles where provably
	// nothing changed. Maintained unconditionally — a counter bump costs
	// nothing and keeps the hot path branch-free.
	activity uint64

	// issueAt is the next-issue horizon: a scan that found no command sets it
	// to the earliest cycle a blocked candidate's command could issue
	// (blocker's ready), and Tick skips issue until then. touch and a Dyn-DMS
	// delay change reset it to 0. held lists the banks that scan held for the
	// DMS delay; a skipped cycle charges them exactly as the scan would have.
	issueAt uint64
	held    []int
	// scanRef makes Tick scan every cycle, ignoring the horizon; only the
	// horizon-equivalence test sets it.
	scanRef bool
	// version counts touch calls; oldestLive memoizes its answer on it.
	version     uint64
	liveHead    *Request
	liveVersion uint64
	// free holds released requests for Push to reuse.
	free []*Request
}

// New creates a controller in front of ch. onComplete must be non-nil;
// vpReady may be nil when AMS is off (and is then treated as always-ready).
func New(cfg Config, ch *dram.Channel, st *stats.Mem, onComplete CompletionFunc, vpReady VPReadyFunc) *Controller {
	if cfg.QueueSize <= 0 {
		panic("mc: QueueSize must be positive")
	}
	c := &Controller{
		cfg:        cfg,
		ch:         ch,
		st:         st,
		onComplete: onComplete,
		vpReady:    vpReady,
		banks:      make([]bankQ, ch.NumBanks()),
		cenBank:    -1,
	}
	if cfg.ProfileWindow == 0 {
		cfg.ProfileWindow = DefaultProfileWindow
		c.cfg.ProfileWindow = DefaultProfileWindow
	}
	if cfg.Scheme.DMS != Off {
		c.dms = newDMSUnit(cfg.Scheme, cfg.ProfileWindow)
	}
	if cfg.Scheme.AMS != Off {
		c.ams = newAMSUnit(cfg.Scheme, cfg.ProfileWindow, st)
	}
	return c
}

// SetTracer attaches a request-lifecycle tracer; the controller then records
// pending-queue wait and DRAM service latency per request. A nil tracer
// disables the hooks.
func (c *Controller) SetTracer(t *obs.Tracer) { c.tr = t }

// SetAudit attaches the scheduler decision log; channel tags the recorded
// decisions and adaptation points. A nil log disables the hooks.
func (c *Controller) SetAudit(a *obs.AuditLog, channel int) {
	c.aud = a
	c.audCh = channel
	if c.dms != nil {
		c.dms.aud = a
		c.dms.channel = channel
	}
	if c.ams != nil {
		c.ams.aud = a
		c.ams.channel = channel
	}
}

// SetFaults attaches the channel's fault injector; every subsequent RD is
// offered to it and the returned flips ride on the request for the fill path
// to apply. A nil injector disables the hook.
func (c *Controller) SetFaults(inj *fault.Injector) { c.inj = inj }

// SetCensus attaches the cycle census: the controller then charges every
// pending bank head's wait cycles to a stall cause, classifies every
// bank-cycle's residency state, and folds retired requests into the exact
// stall decomposition. A nil census disables the hooks. The census tracks
// its banks in one 64-bit mask, so it panics on a channel with more banks.
func (c *Controller) SetCensus(cen *obs.Census) {
	n := len(c.banks)
	if n > 64 {
		panic(fmt.Sprintf("mc: the census supports at most 64 banks per channel, got %d", n))
	}
	c.cen = cen
	cen.EnsureBanks(n)
	c.cenSpans = make([]cenSpan, n)
	c.cenUntil = make([]uint64, n)
	c.cenTicked = ^uint64(0)
	c.cenAllMask = ^uint64(0) >> uint(64-n)
}

// touch records a mutation of bank b's queue that can change what the
// scheduler sees: a push that gives the bank a head or a hit to its open
// row, a retirement, or an AMS row-drop start or finish. It invalidates the
// bank's cached head and oldestLive's memo, marks the bank's census span
// dirty, and ends the issue horizon.
func (c *Controller) touch(b int) {
	c.banks[b].version++
	c.version++
	c.cenDirty |= 1 << uint(b)
	c.issueAt = 0
}

// markCmd records that a DRAM command issued to bank b this cycle: b becomes
// the census's serving bank and is marked dirty so its open census span
// re-classifies against the new timing state. The issue sites that move
// channel-wide state (column bus, tRRD) additionally fold in the matching
// sensitivity mask.
func (c *Controller) markCmd(b int) {
	c.cenBank = b
	c.cenDirty |= 1 << uint(b)
	c.activity++
}

// Activity returns a counter that advances whenever the controller's
// architectural state changed: a request entered the queue, a DRAM command
// issued, or an AMS drop happened. Two equal readings bracket a cycle where
// the controller provably did nothing.
func (c *Controller) Activity() uint64 { return c.activity }

// coverage returns the running prediction coverage (dropped / reads).
func (c *Controller) coverage() float64 {
	if c.st.ReadReqs == 0 {
		return 0
	}
	return float64(c.st.Dropped) / float64(c.st.ReadReqs)
}

// visibleRBL returns the number of pending same-row requests visible for r.
func (c *Controller) visibleRBL(r *Request) int {
	if r.rq != nil {
		return len(r.rq.reqs)
	}
	return 0
}

// audit records one scheduler decision for r together with the inputs in
// force when it was taken. Callers guard on c.aud != nil so the disabled
// path never builds the Decision.
func (c *Controller) audit(now uint64, r *Request, reason obs.Reason) {
	c.aud.Record(obs.Decision{
		Cycle:      now,
		Channel:    c.audCh,
		Bank:       r.Coord.Bank,
		Row:        r.Coord.Row,
		ReqID:      r.ID,
		Reason:     reason,
		VisibleRBL: c.visibleRBL(r),
		Delay:      c.Delay(),
		ThRBL:      c.ThRBL(),
		Coverage:   c.coverage(),
	})
}

// auditSampled audits a per-cycle repeat decision: the reason counter is
// bumped for every event, but full ring detail (with the map lookup and
// coverage math behind it) is recorded only on a deterministic 1-in-64
// subsample of the request's age. A bank held for a 2048-cycle delay, or an
// AMS candidate re-skipped every cycle, would otherwise flood the bounded
// ring with near-identical entries and put a ring write on the scheduler's
// per-cycle path.
func (c *Controller) auditSampled(now uint64, r *Request, reason obs.Reason) {
	if (now-r.Arrival)&63 == 0 {
		c.audit(now, r, reason)
		return
	}
	c.aud.Tally(reason)
}

// Full reports whether the pending queue cannot accept another request.
func (c *Controller) Full() bool { return c.live >= c.cfg.QueueSize }

// Pending returns the number of live requests in the pending queue.
func (c *Controller) Pending() int { return c.live }

// Push enqueues a request. It panics if the queue is full; callers gate on
// Full for backpressure.
func (c *Controller) Push(addr uint64, write, approximable bool, coord dram.Coord) *Request {
	if c.Full() {
		panic("mc: push to full pending queue")
	}
	c.nextID++
	var r *Request
	if n := len(c.free); n > 0 {
		r = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		r = new(Request)
	}
	*r = Request{
		ID:           c.nextID,
		Addr:         addr,
		Write:        write,
		Approximable: approximable && !write,
		Arrival:      c.now,
		Coord:        coord,
	}
	b := coord.Bank
	bq := &c.banks[b]
	open := c.ch.OpenRow(b)
	// A push appends a younger request, so it can change what the scheduler
	// or an open census span sees only by giving an empty (or fully-dropping)
	// bank a head, or by adding a pending hit to the bank's open row (the
	// hit pass and the conflict check read those). Younger arrivals behind a
	// live head leave both the head and every timing input untouched. A bank
	// with no open census span must still open one.
	if bq.head() == nil || coord.Row == open || (c.cen != nil && c.cenUntil[b] == 0) {
		c.touch(b)
	}
	bq.push(r, open)
	c.live++
	c.activity++
	if write {
		c.st.WriteReqs++
	} else {
		c.st.ReadReqs++
	}
	return r
}

// Delay returns the DMS delay currently in force, in memory cycles.
func (c *Controller) Delay() int {
	if c.dms == nil {
		return 0
	}
	return c.dms.delay
}

// ThRBL returns the AMS threshold currently in force (0 when AMS is off).
func (c *Controller) ThRBL() int {
	if c.ams == nil {
		return 0
	}
	return c.ams.thRBL
}

// Release hands a completed request back for reuse by a later Push. The
// caller must hold no reference to r afterwards. Callers that never release
// simply leave every request to the garbage collector.
func (c *Controller) Release(r *Request) {
	if r.state != ReqServed && r.state != ReqDropped {
		panic("mc: release of a request that is pending or already free")
	}
	r.state = ReqFree
	c.free = append(c.free, r)
}

// Tick advances the controller by one memory cycle.
func (c *Controller) Tick(now uint64) {
	c.now = now
	c.st.Cycles = now + 1
	c.st.QueueOccSum += uint64(c.live)
	c.st.DelaySum += uint64(c.Delay())
	c.st.ThRBLSum += uint64(c.ThRBL())
	amsHalted := false
	if c.dms != nil {
		before := c.dms.delay
		amsHalted = c.dms.tick(now, c.st)
		if c.dms.delay != before {
			// A Dyn-DMS delay change moves every head's age gate: every open
			// census span re-classifies and the issue horizon ends.
			c.cenDirty = c.cenAllMask
			c.issueAt = 0
		}
	}
	if c.ams != nil {
		c.ams.tick(now)
		if !amsHalted {
			c.amsStep(now)
		}
	}
	c.cenBank = -1
	if now < c.issueAt && !c.scanRef {
		// Nothing can issue before the horizon; the scan would only have
		// charged its held banks.
		for _, b := range c.held {
			c.st.Bank(b).DMSDelayCycles++
			if c.aud != nil {
				c.auditSampled(now, c.banks[b].head(), obs.ReasonDMSDelayHold)
			}
		}
	} else {
		c.issue(now)
	}
	if c.cen != nil {
		c.censusTick(now)
	}
}

// Drain flushes in-flight activation statistics; call at end of simulation.
func (c *Controller) Drain() { c.ch.Drain() }

// cmdNone is blocker's command for a request that needs none of its own
// yet (it waits behind its open row's pending hits), and for a bank with no
// request that needs none.
const cmdNone obs.CmdKind = 0xff

// bankStall and chanStall name the stall cause of each command's bank-scope
// and channel-scope timing (dram.Channel.ReadyAt): a column command waits on
// tRCD, then the bus; a precharge on tRAS (with tRTP/tWR); an activate on
// tRP (with tRC), then tRRD.
var (
	bankStall = [...]obs.StallCause{
		obs.CmdACT: obs.StallTRP, obs.CmdPRE: obs.StallTRAS,
		obs.CmdRD: obs.StallTRCD, obs.CmdWR: obs.StallTRCD,
	}
	chanStall = [...]obs.StallCause{
		obs.CmdACT: obs.StallTRRD, obs.CmdRD: obs.StallBusTurn, obs.CmdWR: obs.StallBusTurn,
	}
)

// blocker is the one place the controller reads DRAM timing. For request r
// on bank b at cycle now, under DMS delay delay, it returns the command r
// needs next (RD/WR to its open row, PRE or ACT, or cmdNone), the stall
// cause r is charged if it does not issue (StallQueued when r is ready but
// loses arbitration, or waits behind the open row's pending hits), at: the
// first cycle that cause can lapse without a queue mutation or a command,
// and ready: the first cycle cmd can issue without one. at is cenOpen when
// only such an event can end the cause, and at most now when r is ready.
// ready is at for every cause but a bank-scope timing stall, where it is
// the later of the bank and channel stamps: the census charges the bank
// cause until at, and the issue horizon waits for ready. Every stamp behind
// them moves only through a command the controller issues, so the issue
// horizon and the census spans both trust them until the next command or
// queue mutation. The checks run in the scheduler's order: a row hit's
// column timing, then the bus; the DMS age gate; a conflict behind pending
// hits; tRAS; tRP; tRRD.
//
// With r nil it describes bank b itself: an open row with no pending hits
// needs an idle PRE under the closed-row policy (legal from at) and nothing
// otherwise (cenOpen); a closed bank is precharging until at.
func (c *Controller) blocker(r *Request, b int, now, delay uint64) (cmd obs.CmdKind, cause obs.StallCause, at, ready uint64) {
	open := c.ch.OpenRow(b)
	switch {
	case r == nil && open == dram.NoRow:
		at, _ = c.ch.ReadyAt(b, obs.CmdACT)
		return cmdNone, obs.StallQueued, at, at
	case r == nil && (c.cfg.Policy != FRFCFSClosedRow || c.banks[b].open != nil):
		return cmdNone, obs.StallQueued, cenOpen, cenOpen
	case r == nil:
		cmd = obs.CmdPRE
	case open == r.Coord.Row:
		cmd = obs.CmdRD
		if r.Write {
			cmd = obs.CmdWR
		}
	default:
		// Row miss: DMS holds the precharge/activate until the head aged
		// past the delay, and the open-row policy closes a row only once its
		// pending hits drained (under FCFS the head alone decides). Every
		// drained hit retires on this bank, a queue mutation.
		cmd = obs.CmdACT
		if open != dram.NoRow {
			cmd = obs.CmdPRE
		}
		if now-r.Arrival < delay {
			// The horizon stops at the gate too: every cycle a head is held
			// charges DMSDelayCycles.
			return cmd, obs.StallDMSHold, r.Arrival + delay, r.Arrival + delay
		}
		if cmd == obs.CmdPRE && c.cfg.Policy != FCFS && c.banks[b].open != nil {
			return cmdNone, obs.StallQueued, cenOpen, cenOpen
		}
	}
	bank, channel := c.ch.ReadyAt(b, cmd)
	switch {
	case now < bank:
		return cmd, bankStall[cmd], bank, max(bank, channel)
	case now < channel:
		return cmd, chanStall[cmd], channel, channel
	}
	return cmd, obs.StallQueued, now, now
}

// issue picks at most one DRAM command for this cycle, honouring the
// configured policy (FR-FCFS by default: row hits first, then oldest) and
// the DMS age gate on the row-miss path. Every timing question goes to
// blocker: first for each bank's oldest pending hit (under FCFS only when it
// is the bank head) and, under the closed-row policy, for an open row with no
// pending hits; then, if no hit was ready, for each bank head that misses.
// A scan that issues nothing leaves the next-issue horizon in issueAt: the
// minimum of the finite ready values blocker returned.
func (c *Controller) issue(now uint64) {
	c.held = c.held[:0]
	next := cenOpen
	delay := uint64(c.Delay())
	// First priority: the closed-row policy's idle precharge, lowest bank
	// first; then the oldest ready row hit.
	var hit *Request
	for b := range c.banks {
		bq := &c.banks[b]
		var r *Request
		switch {
		case bq.open != nil:
			r = bq.open.oldest()
			if c.cfg.Policy == FCFS && bq.head() != r {
				continue
			}
		case c.cfg.Policy != FRFCFSClosedRow || c.ch.OpenRow(b) == dram.NoRow:
			continue
		}
		_, _, _, ready := c.blocker(r, b, now, delay)
		switch {
		case ready > now:
			next = min(next, ready)
		case r == nil:
			c.ch.PrechargeIdle(b, now)
			c.markCmd(b)
			return
		case hit == nil || r.Arrival < hit.Arrival:
			hit = r
		}
	}
	if hit != nil {
		c.issueColumn(hit, now)
		return
	}

	// Row-miss path: per bank, the oldest pending request defines the next
	// row (FR-FCFS); DMS gates precharge/activate on its age.
	var miss *Request
	var missCmd obs.CmdKind
	for b := range c.banks {
		bq := &c.banks[b]
		r := bq.head()
		if r == nil || r.rq == bq.open {
			continue // no head, or a hit the first pass asked about
		}
		cmd, cause, _, ready := c.blocker(r, b, now, delay)
		switch {
		case cause == obs.StallDMSHold:
			// Attribute the held cycle to the bank so per-bank telemetry
			// shows where DMS bites. The audit counts one delay-hold
			// decision per held bank per cycle, so its total reconciles
			// exactly with DMSDelayCycles.
			c.st.Bank(b).DMSDelayCycles++
			if c.aud != nil {
				c.auditSampled(now, r, obs.ReasonDMSDelayHold)
			}
			c.held = append(c.held, b)
			next = min(next, ready)
		case ready > now:
			next = min(next, ready)
		case miss == nil || r.Arrival < miss.Arrival:
			miss, missCmd = r, cmd
		}
	}
	switch {
	case miss == nil:
		c.issueAt = next
	case missCmd == obs.CmdPRE:
		b := miss.Coord.Bank
		c.ch.Precharge(b, now)
		c.banks[b].open = nil
		c.markCmd(b)
	default:
		b := miss.Coord.Bank
		c.ch.Activate(b, miss.Coord.Row, now)
		c.banks[b].open = miss.rq
		c.markCmd(b)
		c.cenDirty |= c.cenActMask
		// Delay-budget expiry: the request aged past a non-zero in-force
		// delay and its row is now being opened (recorded once per
		// activation, not for the preceding precharge).
		if c.aud != nil && delay > 0 {
			c.audit(now, miss, obs.ReasonDMSDelayExpired)
		}
	}
}

func (c *Controller) issueColumn(r *Request, now uint64) {
	b := r.Coord.Bank
	var ready uint64
	if r.Write {
		ready = c.ch.Write(b, now)
	} else {
		// The injector classifies the burst from pre-RD bank state: the
		// activation's first access is exposed to reduced-tRCD sensing
		// errors, an over-aged open row to retention errors.
		if c.inj != nil {
			first := c.ch.ActServed(b) == 0
			r.Faults = c.inj.OnRead(b, r.Coord.Row, r.Coord.Col, first, c.ch.OpenAge(b, now))
		}
		ready = c.ch.Read(b, now)
	}
	c.tr.Observe(obs.StageMCQueue, now-r.Arrival)
	c.tr.Observe(obs.StageDRAM, ready-now)
	c.markCmd(b)
	c.cenDirty |= c.cenColMask
	if c.cen != nil {
		c.censusRetire(r, now, ready, false)
	}
	c.retire(r, ReqServed)
	c.onComplete(r, false, ready)
}

func (c *Controller) retire(r *Request, s ReqState) {
	r.state = s
	c.banks[r.Coord.Bank].retire(r)
	c.live--
	c.touch(r.Coord.Bank)
}
