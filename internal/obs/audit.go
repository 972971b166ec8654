package obs

import (
	"encoding/json"
	"io"
)

// This file is the scheduler decision-audit half of the observability layer.
// The paper's two decision loops — DMS delaying activations to grow row-hit
// chains and AMS dropping low-RBL approximable reads — are only trustworthy
// when every individual decision is attributable: why was this request held,
// why was that one dropped, why was a drop candidate refused. The audit log
// records one Decision per scheduler event with the inputs that drove it
// (visible RBL, in-force delay, current Th_RBL, running coverage), keeps
// exact per-reason counters regardless of ring wrap, and collects the dynamic
// units' per-window adaptation trace (delay / Th_RBL / coverage timeline).
//
// Everything is nil-safe in the PR-1 style: a nil *AuditLog discards every
// call behind one nil check, so the scheduler hot loop pays nothing when the
// audit is off.

// Reason is a scheduler decision reason code. Each reason belongs to one
// unit ("dms" or "ams") and one decision kind ("delay", "expire", "drop",
// "skip").
type Reason uint8

// Decision reason codes.
const (
	// ReasonDMSDelayHold: a row-miss request was held back by the DMS age
	// gate this cycle. One decision is recorded per held bank per memory
	// cycle, so the total equals the stats.Bank DMSDelayCycles aggregate.
	ReasonDMSDelayHold Reason = iota
	// ReasonDMSDelayExpired: a row-miss request aged past the in-force delay
	// and its row activation was issued (recorded once per activation while
	// a non-zero delay is in force).
	ReasonDMSDelayExpired
	// ReasonAMSDrop: an approximable read was dropped and handed to the
	// value predictor. The total equals stats.Mem.Dropped.
	ReasonAMSDrop
	// ReasonAMSL2Cold: AMS inspected a drop candidate but the L2 is not warm
	// enough for the value-prediction unit to answer.
	ReasonAMSL2Cold
	// ReasonAMSDelayPending: the candidate has not yet satisfied the DMS
	// delay criterion (the paper drops only fully-aged requests).
	ReasonAMSDelayPending
	// ReasonAMSCoverageExhausted: the running prediction coverage has reached
	// the user-defined budget.
	ReasonAMSCoverageExhausted
	// ReasonAMSPendingWrites: the candidate's row has pending writes, whose
	// exactness a drop would violate.
	ReasonAMSPendingWrites
	// ReasonAMSPendingNonApprox: the candidate's row holds a pending
	// non-approximable request.
	ReasonAMSPendingNonApprox
	// ReasonAMSRowOpen: the candidate's row is already open, so serving it
	// costs no activation and dropping it would waste coverage.
	ReasonAMSRowOpen
	// ReasonAMSHighRBL: the row's visible RBL exceeds the in-force Th_RBL;
	// the coverage budget is kept for lower-RBL rows.
	ReasonAMSHighRBL

	// NumReasons is the number of defined reason codes.
	NumReasons
)

// reasonMeta names each reason and assigns its unit and decision kind.
var reasonMeta = [NumReasons]struct{ unit, kind, name string }{
	ReasonDMSDelayHold:         {"dms", "delay", "delay-hold"},
	ReasonDMSDelayExpired:      {"dms", "expire", "delay-expired"},
	ReasonAMSDrop:              {"ams", "drop", "drop"},
	ReasonAMSL2Cold:            {"ams", "skip", "l2-cold"},
	ReasonAMSDelayPending:      {"ams", "skip", "delay-not-elapsed"},
	ReasonAMSCoverageExhausted: {"ams", "skip", "coverage-exhausted"},
	ReasonAMSPendingWrites:     {"ams", "skip", "pending-writes"},
	ReasonAMSPendingNonApprox:  {"ams", "skip", "pending-non-approx"},
	ReasonAMSRowOpen:           {"ams", "skip", "row-open"},
	ReasonAMSHighRBL:           {"ams", "skip", "rbl-above-threshold"},
}

// String returns the reason's report name.
func (r Reason) String() string { return reasonMeta[r].name }

// Unit returns "dms" or "ams", the scheduler unit the reason belongs to.
func (r Reason) Unit() string { return reasonMeta[r].unit }

// Kind returns the decision kind: "delay", "expire", "drop", or "skip".
func (r Reason) Kind() string { return reasonMeta[r].kind }

// Decision is one audited scheduler event with the inputs behind it.
type Decision struct {
	Cycle   uint64
	Channel int
	Bank    int
	Row     int64
	ReqID   uint64
	Reason  Reason
	// VisibleRBL is the number of pending same-row requests visible to the
	// scheduler when the decision was taken.
	VisibleRBL int
	// Delay and ThRBL are the in-force DMS delay and AMS threshold;
	// Coverage the running prediction coverage, all at decision time.
	Delay    int
	ThRBL    int
	Coverage float64
}

// AdaptPoint is one entry of the dynamic units' per-window adaptation trace:
// what a Dyn-DMS or Dyn-AMS unit decided at a profile-window boundary.
type AdaptPoint struct {
	Cycle   uint64 `json:"cycle" gate:"key"`
	Channel int    `json:"channel" gate:"key"`
	// Unit is "dms" or "ams".
	Unit string `json:"unit" gate:"key"`
	// Delay is the in-force delay after the window decision (DMS); BWUtil
	// the window's bus utilization that drove it; Phase the search phase.
	Delay  int     `json:"delay,omitempty"`
	BWUtil float64 `json:"bwutil,omitempty"`
	Phase  string  `json:"phase,omitempty"`
	// ThRBL is the threshold after the window decision (AMS); Coverage the
	// window's achieved coverage over WindowReads reads.
	ThRBL         int     `json:"th_rbl,omitempty"`
	Coverage      float64 `json:"coverage,omitempty"`
	WindowReads   uint64  `json:"window_reads,omitempty"`
	WindowDropped uint64  `json:"window_dropped,omitempty"`
}

// maxAdaptPoints bounds the adaptation trace; windows are coarse (>=1024
// cycles), so this covers runs far longer than any workload in the suite.
const maxAdaptPoints = 1 << 14

// AuditLog is a bounded scheduler decision log. Per-reason counters are
// exact for the whole run; the ring retains the most recent entries for
// detailed inspection. A nil *AuditLog discards everything.
type AuditLog struct {
	counts [NumReasons]uint64
	total  uint64

	ring ring[Decision]

	adapt        []AdaptPoint
	adaptDropped uint64
}

// NewAuditLog creates a log retaining up to capacity decisions (capacity
// must be positive).
func NewAuditLog(capacity int) *AuditLog {
	if capacity <= 0 {
		panic("obs: audit capacity must be positive")
	}
	return &AuditLog{ring: ring[Decision]{limit: capacity}}
}

// Record logs one decision. Nil-safe and allocation-free after the ring has
// grown to capacity.
func (l *AuditLog) Record(d Decision) {
	if l == nil {
		return
	}
	l.counts[d.Reason]++
	l.total++
	l.ring.add(d)
}

// Tally counts one decision without retaining ring detail. Hot per-cycle
// repeat decisions (a bank held by DMS tallies once per cycle, an AMS skip
// re-evaluated every cycle) use this so the exact per-reason counters never
// lose an event while the bounded ring keeps room for representative
// entries instead of millions of near-identical ones.
func (l *AuditLog) Tally(r Reason) {
	if l == nil {
		return
	}
	l.counts[r]++
	l.total++
}

// RecordAdapt appends one adaptation-trace point. Nil-safe; the trace is
// bounded and counts what it had to drop.
func (l *AuditLog) RecordAdapt(p AdaptPoint) {
	if l == nil {
		return
	}
	if len(l.adapt) >= maxAdaptPoints {
		l.adaptDropped++
		return
	}
	l.adapt = append(l.adapt, p)
}

// Count returns the exact number of decisions recorded for the reason.
func (l *AuditLog) Count(r Reason) uint64 {
	if l == nil {
		return 0
	}
	return l.counts[r]
}

// Total returns the exact number of decisions recorded (all reasons).
func (l *AuditLog) Total() uint64 {
	if l == nil {
		return 0
	}
	return l.total
}

// Entries returns the retained decisions in chronological order.
func (l *AuditLog) Entries() []Decision {
	if l == nil {
		return nil
	}
	return l.ring.items()
}

// Adapt returns the adaptation trace.
func (l *AuditLog) Adapt() []AdaptPoint {
	if l == nil {
		return nil
	}
	return l.adapt
}

// ReasonCount is one row of the serialized per-reason breakdown.
type ReasonCount struct {
	Unit   string `json:"unit" gate:"key"`
	Kind   string `json:"kind"`
	Reason string `json:"reason" gate:"key"`
	Count  uint64 `json:"count"`
}

// AuditSummary is the serializable digest of an audit log: exact reason-code
// totals, kind aggregates, and the adaptation trace.
type AuditSummary struct {
	Total        uint64 `json:"total"`
	RingCapacity int    `json:"ring_capacity"`
	// RingDropped counts recorded decisions the ring overwrote (the counters
	// above still include them). Tallied decisions never enter the ring, so
	// they are not dropped.
	RingDropped uint64 `json:"ring_dropped,omitempty"`

	DMSDelayHolds    uint64 `json:"dms_delay_holds"`
	DMSDelayExpiries uint64 `json:"dms_delay_expiries"`
	AMSDrops         uint64 `json:"ams_drops"`
	AMSSkips         uint64 `json:"ams_skips"`

	Reasons []ReasonCount `json:"reasons"`

	Adapt        []AdaptPoint `json:"adapt,omitempty"`
	AdaptDropped uint64       `json:"adapt_dropped,omitempty"`
}

// Summary builds the serializable digest (nil for a nil log).
func (l *AuditLog) Summary() *AuditSummary {
	if l == nil {
		return nil
	}
	s := &AuditSummary{
		Total:            l.total,
		RingCapacity:     l.ring.limit,
		RingDropped:      l.ring.dropped(),
		DMSDelayHolds:    l.counts[ReasonDMSDelayHold],
		DMSDelayExpiries: l.counts[ReasonDMSDelayExpired],
		AMSDrops:         l.counts[ReasonAMSDrop],
		Adapt:            l.adapt,
		AdaptDropped:     l.adaptDropped,
	}
	for r := Reason(0); r < NumReasons; r++ {
		if reasonMeta[r].kind == "skip" {
			s.AMSSkips += l.counts[r]
		}
		if l.counts[r] == 0 {
			continue
		}
		s.Reasons = append(s.Reasons, ReasonCount{
			Unit:   r.Unit(),
			Kind:   r.Kind(),
			Reason: r.String(),
			Count:  l.counts[r],
		})
	}
	return s
}

// decisionJSON is the JSONL wire form of one Decision.
type decisionJSON struct {
	Cycle      uint64  `json:"cycle"`
	Channel    int     `json:"channel"`
	Bank       int     `json:"bank"`
	Row        int64   `json:"row"`
	ReqID      uint64  `json:"req_id,omitempty"`
	Unit       string  `json:"unit"`
	Kind       string  `json:"kind"`
	Reason     string  `json:"reason"`
	VisibleRBL int     `json:"visible_rbl"`
	Delay      int     `json:"delay"`
	ThRBL      int     `json:"th_rbl"`
	Coverage   float64 `json:"coverage"`
}

// WriteJSONL streams the retained decisions as one JSON object per line,
// oldest first. Nil-safe (writes nothing).
func (l *AuditLog) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, d := range l.Entries() {
		row := decisionJSON{
			Cycle:      d.Cycle,
			Channel:    d.Channel,
			Bank:       d.Bank,
			Row:        d.Row,
			ReqID:      d.ReqID,
			Unit:       d.Reason.Unit(),
			Kind:       d.Reason.Kind(),
			Reason:     d.Reason.String(),
			VisibleRBL: d.VisibleRBL,
			Delay:      d.Delay,
			ThRBL:      d.ThRBL,
			Coverage:   d.Coverage,
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}
