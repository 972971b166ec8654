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
// the reply data is available at the controller.
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
	// cenSpans holds each bank's open census span (allocated by SetCensus);
	// cenRefreshing/cenDelay are the refresh-window flag and DMS delay the
	// spans were classified under — a change in either re-classifies every
	// span, because refresh and the DMS age gate feed every classification.
	cenSpans []cenSpan
	// cenUntil holds each open span's expiry horizon (0 = no span open),
	// kept dense and separate from cenSpans so the censusPass expiry scan
	// reads two cache lines instead of one per span.
	cenUntil      []uint64
	cenRefreshing bool
	cenDelay      uint64
	// cenDirty is the set of banks whose open span must re-classify: every
	// queue mutation and command site marks the affected bank eagerly, and
	// column/ACT commands fold in cenColMask/cenActMask — the banks whose
	// span cause depends on the channel's bus state (a ready row-hit head
	// that lost arbitration) or tRRD spacing (a ready activate). Bank-local
	// causes carry their own expiry horizon instead; cenNextUntil is the
	// earliest horizon across all open spans. A cycle with no dirty bank, no
	// reached horizon, and unchanged refresh/delay flags provably extends
	// every span. Maintained unconditionally — an OR costs nothing.
	cenDirty   uint64
	cenColMask uint64
	cenActMask uint64
	// cenAllMask has one bit per bank; cenWide marks controllers with more
	// banks than mask bits, which fall back to the per-cycle reference
	// census.
	cenAllMask   uint64
	cenWide      bool
	cenNextUntil uint64
	// cenTicked is one past the last cycle settled into BankCycles (cenOpen
	// until the first pass); quiescent cycles are accounted in bulk when the
	// next pass — or CensusFinish — observes the gap.
	cenTicked uint64
	// cenRef switches censusTick to the per-cycle reference implementation;
	// only the span-equivalence test sets it.
	cenRef bool
	// activity counts controller progress events (pushes, issued commands,
	// drops); together with the refresh counter it lets the partition census
	// detect cycles where provably nothing changed. Maintained
	// unconditionally — a counter bump costs nothing and keeps the hot path
	// branch-free.
	activity uint64
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
// stall decomposition. A nil census disables the hooks.
func (c *Controller) SetCensus(cen *obs.Census) {
	c.cen = cen
	cen.EnsureBanks(len(c.banks))
	c.cenSpans = make([]cenSpan, len(c.banks))
	c.cenUntil = make([]uint64, len(c.banks))
	c.cenTicked = ^uint64(0)
	if n := len(c.banks); n > 64 {
		c.cenWide = true
	} else {
		c.cenAllMask = ^uint64(0) >> uint(64-n)
	}
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
// issued, an AMS drop happened, or a refresh window opened. Two equal
// readings bracket a cycle where the controller provably did nothing.
func (c *Controller) Activity() uint64 { return c.activity + c.st.Refreshes }

// coverage returns the running prediction coverage (dropped / reads).
func (c *Controller) coverage() float64 {
	if c.st.ReadReqs == 0 {
		return 0
	}
	return float64(c.st.Dropped) / float64(c.st.ReadReqs)
}

// visibleRBL returns the number of pending same-row requests visible for r.
func (c *Controller) visibleRBL(r *Request) int {
	if rq := c.banks[r.Coord.Bank].row(r.Coord.Row); rq != nil {
		return rq.pending
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
	r := &Request{
		ID:           c.nextID,
		Addr:         addr,
		Write:        write,
		Approximable: approximable && !write,
		Arrival:      c.now,
		Coord:        coord,
	}
	c.banks[coord.Bank].push(r)
	c.live++
	c.activity++
	if c.cen != nil {
		// A push appends a younger request, so it can change an open census
		// span's classification only by giving an empty (or fully-dropping)
		// bank a head, or by adding a pending hit to the bank's open row
		// (the conflict branch counts those). Younger arrivals behind a live
		// head leave both the head and every timing input untouched.
		if s := &c.cenSpans[coord.Bank]; c.cenUntil[coord.Bank] == 0 || s.head == nil ||
			coord.Row == c.ch.OpenRow(coord.Bank) {
			c.cenDirty |= 1 << uint(coord.Bank)
		}
	}
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
			// census span re-classifies.
			c.cenDirty = c.cenAllMask
		}
	}
	if c.ams != nil {
		c.ams.tick(now)
		if !amsHalted {
			c.amsStep(now)
		}
	}
	// An all-bank refresh blocks the whole channel for the cycle; the census
	// pass still runs so refresh cycles are attributed, not lost.
	c.cenBank = -1
	refreshing := c.ch.Refreshing(now)
	if !refreshing {
		c.issue(now)
	}
	if c.cen != nil {
		c.censusTick(now, refreshing)
	}
}

// Drain flushes in-flight activation statistics; call at end of simulation.
func (c *Controller) Drain() { c.ch.Drain() }

// issue picks at most one DRAM command for this cycle, honouring the
// configured policy (FR-FCFS by default: row hits first, then oldest) and
// the DMS age gate on the row-miss path.
func (c *Controller) issue(now uint64) {
	if c.cfg.Policy == FRFCFSClosedRow && c.closeIdleRow(now) {
		return
	}
	if c.live == 0 {
		return
	}
	// First priority: the oldest issuable row-buffer hit. Under FCFS a
	// column access only counts when it is also the bank's oldest request
	// (no hit-first reordering).
	var hit *Request
	for b := range c.banks {
		bq := &c.banks[b]
		if bq.pending == 0 {
			continue
		}
		or := c.ch.OpenRow(b)
		if or == dram.NoRow {
			continue
		}
		rq := bq.row(or)
		if rq == nil || rq.pending == 0 || rq.dropping {
			continue
		}
		r := rq.oldest()
		if r == nil {
			continue
		}
		if c.cfg.Policy == FCFS {
			if head := bq.head(); head == nil || head != r {
				continue
			}
		}
		ok := false
		if r.Write {
			ok = c.ch.CanWrite(b, now)
		} else {
			ok = c.ch.CanRead(b, now)
		}
		if ok && (hit == nil || r.Arrival < hit.Arrival) {
			hit = r
		}
	}
	if hit != nil {
		c.issueColumn(hit, now)
		return
	}

	// Row-miss path: per bank, the oldest pending request defines the next
	// row (FR-FCFS); DMS gates precharge/activate on its age.
	delay := uint64(c.Delay())
	type action struct {
		req *Request
		pre bool
	}
	var best action
	for b := range c.banks {
		bq := &c.banks[b]
		if bq.pending == 0 {
			continue
		}
		r := bq.head()
		if r == nil {
			continue
		}
		or := c.ch.OpenRow(b)
		if or == r.Coord.Row {
			// A hit exists but its timing is not ready; nothing to do.
			continue
		}
		if now-r.Arrival < delay {
			// DMS: let the request age in the queue; attribute the blocked
			// cycle to the bank so per-bank telemetry shows where DMS bites.
			// The audit counts one delay-hold decision per held bank per
			// cycle, so its total reconciles exactly with DMSDelayCycles.
			c.st.Bank(b).DMSDelayCycles++
			if c.aud != nil {
				c.auditSampled(now, r, obs.ReasonDMSDelayHold)
			}
			continue
		}
		var a action
		if or != dram.NoRow {
			// Open-row policy: only close the row once it has no pending
			// hits left. Under FCFS the bank head alone decides, so a miss
			// at the head precharges past younger would-be hits.
			if rq := bq.row(or); c.cfg.Policy != FCFS &&
				rq != nil && rq.pending > 0 && !rq.dropping {
				continue
			}
			if !c.ch.CanPrecharge(b, now) {
				continue
			}
			a = action{req: r, pre: true}
		} else {
			if !c.ch.CanActivate(b, now) {
				continue
			}
			a = action{req: r}
		}
		if best.req == nil || a.req.Arrival < best.req.Arrival {
			best = a
		}
	}
	switch {
	case best.req == nil:
	case best.pre:
		c.ch.Precharge(best.req.Coord.Bank, now)
		c.markCmd(best.req.Coord.Bank)
	default:
		c.ch.Activate(best.req.Coord.Bank, best.req.Coord.Row, now)
		c.markCmd(best.req.Coord.Bank)
		c.cenDirty |= c.cenActMask
		// Delay-budget expiry: the request aged past a non-zero in-force
		// delay and its row is now being opened (recorded once per
		// activation, not for the preceding precharge).
		if c.aud != nil && delay > 0 {
			c.audit(now, best.req, obs.ReasonDMSDelayExpired)
		}
	}
}

// closeIdleRow precharges one open row that has no pending requests (the
// closed-row policy); it reports whether a command was issued.
func (c *Controller) closeIdleRow(now uint64) bool {
	for b := range c.banks {
		or := c.ch.OpenRow(b)
		if or == dram.NoRow {
			continue
		}
		rq := c.banks[b].row(or)
		if rq != nil && (rq.pending > 0 || rq.dropping) {
			continue
		}
		if c.ch.CanPrecharge(b, now) {
			c.ch.PrechargeIdle(b, now)
			c.markCmd(b)
			return true
		}
	}
	return false
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
	c.cenDirty |= 1 << uint(r.Coord.Bank)
}
