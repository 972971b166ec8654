package obs

import "fmt"

// This file implements the cycle census and latency-provenance layer: exact
// per-request stall-cause attribution, per-bank state-residency accounting,
// and the partition-cycle census that measures how many memory cycles an
// event-driven loop could skip.
//
// Exactness discipline (DESIGN.md §11): for every retired request the
// per-cause stall cycles sum *exactly* to its measured queue+service latency,
// and every observed bank-cycle is classified into exactly one residency
// state, so Σ residency == elapsed bank-cycles. Both identities are enforced
// by CheckInvariants and by the sim-level integration tests, the same way
// PR 2 pinned bank-sum==channel-total and PR 3 pinned audited-drops==Dropped.
//
// Each memory channel has its own Census, written only by that partition's
// tick path on the simulation goroutine; the machine-level view sums them.

// StallCause is one entry of the stall-attribution taxonomy. Every memory
// cycle a retired request spent between pending-queue entry and data-burst
// completion (or value-predicted reply) is charged to exactly one cause.
type StallCause uint8

// Stall causes. The queue-side causes (everything before the column command)
// are charged per cycle while the request is its bank's scheduling head;
// cycles spent behind other work — not at the head, or at the head but losing
// the one-command-per-cycle channel arbitration — are the StallQueued
// remainder. The service-side causes (CAS, Burst, VP) decompose the fixed
// column/reply latency.
const (
	// StallQueued: waiting behind other requests — not the bank's scheduling
	// head, or ready at the head but another bank's command won arbitration.
	StallQueued StallCause = iota
	// StallDMSHold: the head's row-miss is gated by the DMS delay (the
	// request has not yet aged Delay cycles in the pending queue).
	StallDMSHold
	// StallTRCD: head targets the open row but the bank's own column timing
	// (tRCD after ACT, or same-bank read/write recovery) blocks the access.
	StallTRCD
	// StallBusTurn: head targets the open row, the bank is ready, but the
	// channel column bus is busy (tCCD spacing, read/write turnaround,
	// same-bank-group tCCDL).
	StallBusTurn
	// StallTRP: head needs an ACT but the bank's precharge/cycle recovery
	// (tRP/tRC) has not elapsed.
	StallTRP
	// StallTRRD: head needs an ACT, the bank is ready, but the channel
	// ACT-to-ACT spacing (tRRD) blocks it.
	StallTRRD
	// StallTRAS: head needs a demand precharge but the open row's minimum
	// open time / write recovery / read-to-precharge (tRAS/tWR/tRTP) blocks
	// it.
	StallTRAS
	// StallCAS: column-access latency of the issued command (CL for reads,
	// WL for writes).
	StallCAS
	// StallBurst: data-burst occupancy of the bus (tCCD).
	StallBurst
	// StallVP: value-predicted reply latency of an AMS-dropped request.
	StallVP

	NumStallCauses
)

var stallNames = [NumStallCauses]string{
	StallQueued:  "queued",
	StallDMSHold: "dms_hold",
	StallTRCD:    "trcd",
	StallBusTurn: "bus_turn",
	StallTRP:     "trp",
	StallTRRD:    "trrd",
	StallTRAS:    "tras",
	StallCAS:     "cas",
	StallBurst:   "burst",
	StallVP:      "vp",
}

// String returns the cause's report name.
func (s StallCause) String() string { return stallNames[s] }

// BankState classifies what one DRAM bank was doing during one memory cycle.
// Exactly one state applies per bank per cycle.
type BankState uint8

// Bank residency states.
const (
	// BankServing: a command (ACT/PRE/RD/WR) issued to the bank this cycle.
	BankServing BankState = iota
	// BankDMSHeld: the bank's scheduling head is a row-miss held by the DMS
	// age gate (the paper's delayed scheduling in force; the row — open or
	// closed — sits idle under DMS).
	BankDMSHeld
	// BankTimingWait: the bank has a schedulable head but DRAM timing or
	// channel arbitration blocked it this cycle.
	BankTimingWait
	// BankOpenIdle: a row is open but the bank has no pending work.
	BankOpenIdle
	// BankPrecharging: the bank is closed with no pending work and its
	// activate timing (tRP/tRC recovery) has not elapsed.
	BankPrecharging
	// BankIdle: closed, no pending work, ready to activate.
	BankIdle

	NumBankStates
)

var bankStateNames = [NumBankStates]string{
	BankServing:     "serving",
	BankDMSHeld:     "dms_held",
	BankTimingWait:  "timing_wait",
	BankOpenIdle:    "open_idle",
	BankPrecharging: "precharging",
	BankIdle:        "idle",
}

// String returns the state's report name.
func (s BankState) String() string { return bankStateNames[s] }

// Census is one memory partition's cycle-census state: the stall-attribution
// decomposition, the bank residency matrix, and the partition-cycle census
// with its next-event-gap histogram. Single writer (the owning partition's
// tick path); readers (the summary, the live-metrics publish) sum the
// channels' censuses on the simulation goroutine when they read them.
type Census struct {
	// Stall attribution. LatencyCycles sums every retired request's measured
	// queue+service latency; the per-cause histograms below decompose
	// exactly the same cycles by cause (Attributed() == LatencyCycles is the
	// Σ-invariant).
	Requests      uint64
	LatencyCycles uint64

	// Residency classifies every observed bank-cycle: BankCycles counts the
	// census passes (elapsed memory cycles), and for every bank the row of
	// Residency sums to exactly BankCycles.
	BankCycles uint64
	Residency  [][NumBankStates]uint64

	// Partition-cycle census: every memory cycle is advancing (some
	// architectural event happened), timing-wait (work pending but nothing
	// could change — skippable by an event-driven loop), or fully idle.
	PartCycles uint64
	Advancing  uint64
	TimingWait uint64
	Idle       uint64

	// Ingress backpressure, counted in request-retry core cycles at the
	// partition boundary. These sit upstream of the pending queue and are
	// deliberately outside the mem-side Σ-invariant (DESIGN.md §11); the
	// network leg is already measured by StageIcntReq.
	MSHRFull   uint64
	MergeLimit uint64
	QueueFull  uint64

	// The histograms sit after every per-cycle counter: each one is a large
	// inline bucket array (a Histogram is ~19KB), and keeping the hot
	// counters packed at the front of the struct keeps the per-cycle update
	// path inside a couple of cache lines.

	// StallHist records the distribution over requests of cycles spent in
	// each cause; StallHist[c].Sum() is the cause's total.
	StallHist [NumStallCauses]Histogram
	// GapHist records the lengths of maximal runs of non-advancing cycles:
	// the jumps an event-driven skip-ahead loop could take.
	GapHist Histogram
}

// NewCensus returns an empty census; the residency matrix grows on
// EnsureBanks.
func NewCensus() *Census { return &Census{} }

// EnsureBanks sizes the residency matrix for n banks (grow-only).
func (c *Census) EnsureBanks(n int) {
	if c == nil || n <= len(c.Residency) {
		return
	}
	rs := make([][NumBankStates]uint64, n)
	copy(rs, c.Residency)
	c.Residency = rs
}

// Attributed returns the total cycles charged across all stall causes; the
// Σ-invariant is Attributed() == LatencyCycles.
func (c *Census) Attributed() uint64 {
	var n uint64
	for i := range c.StallHist {
		n += c.StallHist[i].Sum()
	}
	return n
}

// Retire folds one retired request into the decomposition: lat is its
// measured queue+service latency and cycles the per-cause charge vector,
// which must sum to lat (the controller constructs it that way; violations
// surface via CheckInvariants).
func (c *Census) Retire(lat uint64, cycles *[NumStallCauses]uint64) {
	c.Requests++
	c.LatencyCycles += lat
	for cause, n := range cycles {
		if n > 0 {
			c.StallHist[cause].Observe(n)
		}
	}
}

// AddBankCycles charges n cycles of state s to bank b at once; the census
// spans close a whole run of identically-classified cycles in one call.
func (c *Census) AddBankCycles(b int, s BankState, n uint64) {
	if b < len(c.Residency) {
		c.Residency[b][s] += n
	}
}

// AddCycles closes n bank census passes (elapsed memory cycles) at once.
func (c *Census) AddCycles(n uint64) { c.BankCycles += n }

// CloseGap folds one maximal non-advancing run of n cycles into the
// partition census: the partition counts runs locally and folds them here
// only when a gap closes.
func (c *Census) CloseGap(n uint64, idle bool) {
	if n == 0 {
		return
	}
	c.PartCycles += n
	if idle {
		c.Idle += n
	} else {
		c.TimingWait += n
	}
	c.GapHist.Observe(n)
}

// AddAdvancing folds n advancing partition cycles at once.
func (c *Census) AddAdvancing(n uint64) {
	c.PartCycles += n
	c.Advancing += n
}

// Merge folds o into c elementwise (bank i of o into bank i of c). Nil-safe
// on both sides.
func (c *Census) Merge(o *Census) {
	if c == nil || o == nil {
		return
	}
	c.EnsureBanks(len(o.Residency))
	c.Requests += o.Requests
	c.LatencyCycles += o.LatencyCycles
	for i := range o.StallHist {
		c.StallHist[i].Merge(&o.StallHist[i])
	}
	c.BankCycles += o.BankCycles
	for b := range o.Residency {
		for i := range o.Residency[b] {
			c.Residency[b][i] += o.Residency[b][i]
		}
	}
	c.PartCycles += o.PartCycles
	c.Advancing += o.Advancing
	c.TimingWait += o.TimingWait
	c.Idle += o.Idle
	c.GapHist.Merge(&o.GapHist)
	c.MSHRFull += o.MSHRFull
	c.MergeLimit += o.MergeLimit
	c.QueueFull += o.QueueFull
}

// CheckInvariants verifies the census exactness identities: the stall
// decomposition sums to the measured latency, every bank's residency row
// sums to the elapsed bank-cycles, and the partition cycle classes partition
// the elapsed cycles, each non-advancing cycle inside one closed gap.
func (c *Census) CheckInvariants() error {
	if c == nil {
		return nil
	}
	if got := c.Attributed(); got != c.LatencyCycles {
		return fmt.Errorf("census: attributed stall cycles %d != measured latency cycles %d", got, c.LatencyCycles)
	}
	for b := range c.Residency {
		var sum uint64
		for _, v := range c.Residency[b] {
			sum += v
		}
		if sum != c.BankCycles {
			return fmt.Errorf("census: bank %d residency sum %d != elapsed bank-cycles %d", b, sum, c.BankCycles)
		}
	}
	if got := c.Advancing + c.TimingWait + c.Idle; got != c.PartCycles {
		return fmt.Errorf("census: partition classes sum %d != partition cycles %d", got, c.PartCycles)
	}
	if got := c.GapHist.Sum(); got != c.TimingWait+c.Idle {
		return fmt.Errorf("census: gap histogram covers %d cycles, want %d non-advancing", got, c.TimingWait+c.Idle)
	}
	return nil
}

// SkippableFrac returns the fraction of partition cycles an event-driven
// loop could skip (timing-wait + idle over all cycles).
func (c *Census) SkippableFrac() float64 {
	if c == nil || c.PartCycles == 0 {
		return 0
	}
	return float64(c.TimingWait+c.Idle) / float64(c.PartCycles)
}

// StallSummary is the serializable decomposition-table row for one cause.
type StallSummary struct {
	Cause string `json:"cause" gate:"key"`
	// Cycles is the cause's total; Share its fraction of all attributed
	// cycles. Requests counts retired requests that spent at least one cycle
	// in the cause; Mean/P50/P99/Max describe that per-request distribution.
	Cycles   uint64  `json:"cycles"`
	Share    float64 `json:"share"`
	Requests uint64  `json:"requests"`
	Mean     float64 `json:"mean"`
	P50      uint64  `json:"p50"`
	P99      uint64  `json:"p99"`
	Max      uint64  `json:"max"`
}

// ResidencySummary is one bank-state row of the machine-level residency
// census.
type ResidencySummary struct {
	State  string  `json:"state" gate:"key"`
	Cycles uint64  `json:"cycles"`
	Share  float64 `json:"share"`
}

// BankResidency is one bank's residency row in per-channel detail.
type BankResidency struct {
	Bank        int    `json:"bank" gate:"key"`
	Serving     uint64 `json:"serving"`
	DMSHeld     uint64 `json:"dms_held"`
	TimingWait  uint64 `json:"timing_wait"`
	OpenIdle    uint64 `json:"open_idle"`
	Precharging uint64 `json:"precharging"`
	Idle        uint64 `json:"idle"`
}

// ChannelCensus is one channel's slice of the census in serializable form.
type ChannelCensus struct {
	Channel       int               `json:"channel" gate:"key"`
	Requests      uint64            `json:"requests"`
	LatencyCycles uint64            `json:"latency_cycles"`
	SkippableFrac float64           `json:"skippable_frac"`
	StallCycles   map[string]uint64 `json:"stall_cycles"`
	Banks         []BankResidency   `json:"banks"`
}

// IngressSummary reports partition-boundary backpressure (request-retry core
// cycles), outside the mem-side Σ-invariant.
type IngressSummary struct {
	MSHRFull   uint64 `json:"mshr_full"`
	MergeLimit uint64 `json:"merge_limit"`
	QueueFull  uint64 `json:"queue_full"`
}

// HostPhases reports the host-side phase profiler: sampled wall-clock spent
// in the coreTick / memTick / probe phases of GPU.Step. Host timings are
// nondeterministic by nature and are excluded from lazycmp's gate
// (CensusSummary.Host is tagged gate:"-"), like wall_ms.
type HostPhases struct {
	SampleEvery uint64 `json:"sample_every"`
	CoreTicks   uint64 `json:"core_ticks_sampled"`
	CoreNS      uint64 `json:"core_ns"`
	MemTicks    uint64 `json:"mem_ticks_sampled"`
	MemNS       uint64 `json:"mem_ns"`
	ProbeTicks  uint64 `json:"probe_ticks_sampled"`
	ProbeNS     uint64 `json:"probe_ns"`
}

// CensusSummary is the machine-level serializable census digest attached to
// Telemetry (lazysim -json telemetry.census).
type CensusSummary struct {
	Requests      uint64 `json:"requests"`
	LatencyCycles uint64 `json:"latency_cycles"`
	// AttributedCycles restates the Σ-invariant in the artifact itself:
	// it must equal LatencyCycles.
	AttributedCycles uint64         `json:"attributed_cycles"`
	Stalls           []StallSummary `json:"stalls"`

	BankCycles uint64             `json:"bank_cycles"`
	Residency  []ResidencySummary `json:"residency"`

	PartCycles    uint64  `json:"partition_cycles"`
	Advancing     uint64  `json:"advancing"`
	TimingWait    uint64  `json:"timing_wait"`
	Idle          uint64  `json:"idle"`
	SkippableFrac float64 `json:"skippable_frac"`

	// Next-event-gap histogram: maximal non-advancing runs, the jumps an
	// event-driven loop could take.
	GapCount uint64       `json:"gap_count"`
	GapMean  float64      `json:"gap_mean"`
	GapP50   uint64       `json:"gap_p50"`
	GapP90   uint64       `json:"gap_p90"`
	GapP99   uint64       `json:"gap_p99"`
	GapMax   uint64       `json:"gap_max"`
	GapHist  []HistBucket `json:"gap_hist,omitempty"`

	Ingress  *IngressSummary `json:"ingress,omitempty"`
	Channels []ChannelCensus `json:"channels,omitempty"`
	Host     *HostPhases     `json:"host,omitempty" gate:"-"`

	// InvariantError carries the first CheckInvariants violation, so any
	// artifact that embeds a census also records whether its exactness
	// guarantees held; empty on every healthy run.
	InvariantError string `json:"invariant_error,omitempty"`
}

// Summary builds the machine-level serializable digest (nil receiver → nil).
func (c *Census) Summary() *CensusSummary {
	if c == nil {
		return nil
	}
	s := &CensusSummary{
		Requests:         c.Requests,
		LatencyCycles:    c.LatencyCycles,
		AttributedCycles: c.Attributed(),
		BankCycles:       c.BankCycles,
		PartCycles:       c.PartCycles,
		Advancing:        c.Advancing,
		TimingWait:       c.TimingWait,
		Idle:             c.Idle,
		SkippableFrac:    c.SkippableFrac(),
		GapCount:         c.GapHist.Count(),
		GapMean:          c.GapHist.Mean(),
		GapP50:           c.GapHist.Percentile(50),
		GapP90:           c.GapHist.Percentile(90),
		GapP99:           c.GapHist.Percentile(99),
		GapMax:           c.GapHist.Max(),
		GapHist:          c.GapHist.Buckets(),
	}
	if err := c.CheckInvariants(); err != nil {
		s.InvariantError = err.Error()
	}
	total := s.AttributedCycles
	for cause := StallCause(0); cause < NumStallCauses; cause++ {
		h := &c.StallHist[cause]
		cyc := h.Sum()
		if cyc == 0 {
			continue
		}
		row := StallSummary{
			Cause:    cause.String(),
			Cycles:   cyc,
			Requests: h.Count(),
			Mean:     h.Mean(),
			P50:      h.Percentile(50),
			P99:      h.Percentile(99),
			Max:      h.Max(),
		}
		if total > 0 {
			row.Share = float64(cyc) / float64(total)
		}
		s.Stalls = append(s.Stalls, row)
	}
	var resTotal uint64
	var perState [NumBankStates]uint64
	for b := range c.Residency {
		for st, v := range c.Residency[b] {
			perState[st] += v
			resTotal += v
		}
	}
	for st := BankState(0); st < NumBankStates; st++ {
		if perState[st] == 0 {
			continue
		}
		row := ResidencySummary{State: st.String(), Cycles: perState[st]}
		if resTotal > 0 {
			row.Share = float64(perState[st]) / float64(resTotal)
		}
		s.Residency = append(s.Residency, row)
	}
	if c.MSHRFull+c.MergeLimit+c.QueueFull > 0 {
		s.Ingress = &IngressSummary{
			MSHRFull:   c.MSHRFull,
			MergeLimit: c.MergeLimit,
			QueueFull:  c.QueueFull,
		}
	}
	return s
}

// ChannelSummary builds one channel's detail block from a per-partition
// census (nil receiver → zero-valued block).
func (c *Census) ChannelSummary(channel int) ChannelCensus {
	out := ChannelCensus{Channel: channel}
	if c == nil {
		return out
	}
	out.Requests = c.Requests
	out.LatencyCycles = c.LatencyCycles
	out.SkippableFrac = c.SkippableFrac()
	out.StallCycles = make(map[string]uint64)
	for cause := StallCause(0); cause < NumStallCauses; cause++ {
		if n := c.StallHist[cause].Sum(); n > 0 {
			out.StallCycles[cause.String()] = n
		}
	}
	for b := range c.Residency {
		r := &c.Residency[b]
		out.Banks = append(out.Banks, BankResidency{
			Bank:        b,
			Serving:     r[BankServing],
			DMSHeld:     r[BankDMSHeld],
			TimingWait:  r[BankTimingWait],
			OpenIdle:    r[BankOpenIdle],
			Precharging: r[BankPrecharging],
			Idle:        r[BankIdle],
		})
	}
	return out
}
