// Package stats collects the simulation metrics the paper reports: row
// activations, row-buffer locality (RBL) histograms, DRAM bandwidth
// utilization, IPC inputs, and AMS coverage.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// RBLHist is a histogram of row activations keyed by the number of requests
// the activation served before the row was closed (its RBL). Index 0 is
// unused; RBLs above MaxTrackedRBL are accumulated in the last bucket.
const MaxTrackedRBL = 64

// Mem aggregates DRAM-side statistics for one memory controller or,
// after Merge, for the whole memory system.
type Mem struct {
	// Activations is the total number of row activations (ACT commands).
	Activations uint64
	// Reads and Writes are column accesses issued to DRAM banks.
	Reads, Writes uint64
	// ReadReqs and WriteReqs are requests that arrived at the pending queue.
	// ReadReqs includes requests later dropped by AMS.
	ReadReqs, WriteReqs uint64
	// Dropped is the number of read requests dropped by AMS.
	Dropped uint64
	// DataBusBusy counts memory cycles the data bus transferred data; Cycles
	// counts total memory cycles. BWUTIL = DataBusBusy / Cycles.
	DataBusBusy uint64
	Cycles      uint64
	// NumChannels counts how many per-channel Mems were merged into this one
	// (0 means a single channel): BWUtil normalizes by it.
	NumChannels int
	// RBL[i] counts row activations that served exactly i requests
	// (i clamped to MaxTrackedRBL).
	RBL [MaxTrackedRBL + 1]uint64
	// ReadsPerRBL[i] counts column *read* accesses served by activations of
	// RBL i; used for the Fig. 6 cumulative curves.
	ReadsPerRBL [MaxTrackedRBL + 1]uint64
	// ReadOnlyActs counts activations that served only global reads.
	ReadOnlyActs uint64
	// QueueOccSum accumulates the pending-queue occupancy each memory cycle;
	// QueueOccSum/Cycles is the mean occupancy.
	QueueOccSum uint64
	// DelaySum and ThRBLSum accumulate the in-force DMS delay and AMS
	// threshold each memory cycle, for time-weighted averages of the dynamic
	// schemes' settled values.
	DelaySum uint64
	ThRBLSum uint64
	// FaultActFlips, FaultRetFlips, and FaultBusFlips count injected bit
	// flips by fault mode (activation / retention / bus transient); all zero
	// unless the fault model is enabled. FaultReads counts read bursts that
	// carried at least one flip.
	FaultActFlips uint64
	FaultRetFlips uint64
	FaultBusFlips uint64
	FaultReads    uint64
	// Banks is the per-bank counter matrix for this channel (nil until the
	// DRAM layer calls EnsureBanks or Bank). In a merged Mem, bank i holds
	// the element-wise sum of bank i across the merged channels; keep the
	// unmerged per-channel Mems (sim.Result.Channels) for the full
	// channel × bank matrix.
	Banks []Bank
}

// Bank is one row of the per-bank counter matrix: where the channel's
// commands, bus time, and scheduler decisions landed. The aggregate Mem
// counters remain authoritative; Validate checks the matrix sums back to
// them exactly.
type Bank struct {
	// Activations, Reads, Writes, and Precharges count the bank's ACT, RD,
	// WR, and demand/idle PRE commands.
	Activations uint64 `json:"activations"`
	Reads       uint64 `json:"reads"`
	Writes      uint64 `json:"writes"`
	Precharges  uint64 `json:"precharges"`
	// RowHits, RowMisses and RowConflicts classify every column access:
	// a hit reused the already-open row, a miss opened a row in an idle
	// (precharged) bank, a conflict first had to close another row that the
	// scheduler precharged on demand. Hits+Misses+Conflicts == Reads+Writes.
	RowHits      uint64 `json:"row_hits"`
	RowMisses    uint64 `json:"row_misses"`
	RowConflicts uint64 `json:"row_conflicts"`
	// BusBusy counts data-bus cycles spent on this bank's bursts.
	BusBusy uint64 `json:"bus_busy"`
	// DMSDelayCycles counts memory cycles the bank's oldest row-miss request
	// was held back purely by the DMS age gate.
	DMSDelayCycles uint64 `json:"dms_delay_cycles"`
	// AMSDrops counts read requests to this bank dropped by AMS.
	AMSDrops uint64 `json:"ams_drops"`
	// FaultFlips counts injected bit flips (all modes) in this bank's reads.
	FaultFlips uint64 `json:"fault_flips,omitempty"`
}

// add accumulates o into b.
func (b *Bank) add(o *Bank) {
	b.Activations += o.Activations
	b.Reads += o.Reads
	b.Writes += o.Writes
	b.Precharges += o.Precharges
	b.RowHits += o.RowHits
	b.RowMisses += o.RowMisses
	b.RowConflicts += o.RowConflicts
	b.BusBusy += o.BusBusy
	b.DMSDelayCycles += o.DMSDelayCycles
	b.AMSDrops += o.AMSDrops
	b.FaultFlips += o.FaultFlips
}

// EnsureBanks sizes the per-bank matrix for n banks, preserving existing
// counters. The DRAM channel calls it once at construction.
func (m *Mem) EnsureBanks(n int) {
	if n <= len(m.Banks) {
		return
	}
	nb := make([]Bank, n)
	copy(nb, m.Banks)
	m.Banks = nb
}

// Bank returns the counter row for bank i, growing the matrix on demand so
// hand-built Mems in tests need no explicit sizing.
func (m *Mem) Bank(i int) *Bank {
	if i >= len(m.Banks) {
		m.EnsureBanks(i + 1)
	}
	return &m.Banks[i]
}

// BankTotals sums the per-bank matrix into one Bank row.
func (m *Mem) BankTotals() Bank {
	var t Bank
	for i := range m.Banks {
		t.add(&m.Banks[i])
	}
	return t
}

// Clone returns a deep copy of m (the Banks slice is not shared).
func (m *Mem) Clone() Mem {
	c := *m
	if m.Banks != nil {
		c.Banks = append([]Bank(nil), m.Banks...)
	}
	return c
}

// RecordActivationClose records that a row activation served n requests, r of
// which were reads; readOnly reports whether all of them were global reads.
func (m *Mem) RecordActivationClose(n, r int, readOnly bool) {
	if n <= 0 {
		return
	}
	i := n
	if i > MaxTrackedRBL {
		i = MaxTrackedRBL
	}
	m.RBL[i]++
	ri := i
	m.ReadsPerRBL[ri] += uint64(r)
	if readOnly {
		m.ReadOnlyActs++
	}
}

// AvgRBL returns total serviced requests divided by total activations
// (the paper's Avg-RBL). It returns 0 when there were no activations.
func (m *Mem) AvgRBL() float64 {
	if m.Activations == 0 {
		return 0
	}
	return float64(m.Reads+m.Writes) / float64(m.Activations)
}

// BWUtil returns the fraction of memory cycles the data bus was busy,
// averaged over the merged channels.
func (m *Mem) BWUtil() float64 {
	if m.Cycles == 0 {
		return 0
	}
	ch := m.NumChannels
	if ch < 1 {
		ch = 1
	}
	return float64(m.DataBusBusy) / float64(m.Cycles*uint64(ch))
}

// MeanDelay returns the time-weighted average DMS delay across the merged
// channels, in memory cycles.
func (m *Mem) MeanDelay() float64 {
	if m.Cycles == 0 {
		return 0
	}
	ch := m.NumChannels
	if ch < 1 {
		ch = 1
	}
	return float64(m.DelaySum) / float64(m.Cycles*uint64(ch))
}

// MeanThRBL returns the time-weighted average AMS threshold across the
// merged channels.
func (m *Mem) MeanThRBL() float64 {
	if m.Cycles == 0 {
		return 0
	}
	ch := m.NumChannels
	if ch < 1 {
		ch = 1
	}
	return float64(m.ThRBLSum) / float64(m.Cycles*uint64(ch))
}

// Coverage returns the fraction of arrived global read requests that were
// dropped by AMS (the paper's prediction coverage).
func (m *Mem) Coverage() float64 {
	if m.ReadReqs == 0 {
		return 0
	}
	return float64(m.Dropped) / float64(m.ReadReqs)
}

// LowRBLReqFrac returns the fraction of requests served by activations whose
// RBL lies in [lo, hi]; this is the paper's "thrashing level" when called
// with (1, 8).
func (m *Mem) LowRBLReqFrac(lo, hi int) float64 {
	var in, total uint64
	for i := 1; i <= MaxTrackedRBL; i++ {
		n := m.RBL[i] * uint64(i)
		total += n
		if i >= lo && i <= hi {
			in += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(in) / float64(total)
}

// hasData reports whether m recorded any activity, distinguishing a live
// single-channel Mem (whose NumChannels is still 0) from an untouched
// accumulator.
func (m *Mem) hasData() bool {
	return m.Cycles != 0 || m.Activations != 0 || m.Reads != 0 || m.Writes != 0 ||
		m.ReadReqs != 0 || m.WriteReqs != 0 || m.DataBusBusy != 0
}

// Channels returns how many channels m's counters represent: the explicit
// NumChannels when set, 1 for an unmerged Mem with data, 0 for an untouched
// accumulator. This resolves the 0-vs-1 ambiguity of NumChannels, where a
// per-channel Mem carries 0 and a merged Mem covering one channel carries 1.
func (m *Mem) Channels() int {
	if m.NumChannels > 0 {
		return m.NumChannels
	}
	if m.hasData() {
		return 1
	}
	return 0
}

// Merge adds o into m. NumChannels is normalized on both sides via Channels,
// so merging per-channel Mems, already-merged Mems, or a mix all yield the
// correct channel count (previously, merging into a Mem holding unmerged
// single-channel data silently lost that channel).
func (m *Mem) Merge(o *Mem) {
	m.NumChannels = m.Channels() + o.Channels()
	m.Activations += o.Activations
	m.Reads += o.Reads
	m.Writes += o.Writes
	m.ReadReqs += o.ReadReqs
	m.WriteReqs += o.WriteReqs
	m.Dropped += o.Dropped
	m.DataBusBusy += o.DataBusBusy
	if o.Cycles > m.Cycles {
		m.Cycles = o.Cycles
	}
	for i := range m.RBL {
		m.RBL[i] += o.RBL[i]
		m.ReadsPerRBL[i] += o.ReadsPerRBL[i]
	}
	m.ReadOnlyActs += o.ReadOnlyActs
	m.QueueOccSum += o.QueueOccSum
	m.DelaySum += o.DelaySum
	m.ThRBLSum += o.ThRBLSum
	m.FaultActFlips += o.FaultActFlips
	m.FaultRetFlips += o.FaultRetFlips
	m.FaultBusFlips += o.FaultBusFlips
	m.FaultReads += o.FaultReads
	if len(o.Banks) > 0 {
		m.EnsureBanks(len(o.Banks))
		for i := range o.Banks {
			m.Banks[i].add(&o.Banks[i])
		}
	}
}

// TotalFaultFlips returns the all-mode injected-flip count.
func (m *Mem) TotalFaultFlips() uint64 {
	return m.FaultActFlips + m.FaultRetFlips + m.FaultBusFlips
}

// Validate checks the internal consistency invariants that hold for any Mem
// at the end of a drained run (and, except where noted, mid-run too). It
// returns nil when all hold, or an error listing every violation. Use it in
// tests and when ingesting externally produced telemetry.
func (m *Mem) Validate() error {
	var errs []string
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}

	var actsClosed, reqsClosed, readsClosed uint64
	for i := 1; i <= MaxTrackedRBL; i++ {
		actsClosed += m.RBL[i]
		reqsClosed += m.RBL[i] * uint64(i)
		readsClosed += m.ReadsPerRBL[i]
	}
	if m.RBL[0] != 0 || m.ReadsPerRBL[0] != 0 {
		fail("RBL bucket 0 must be unused: RBL[0]=%d ReadsPerRBL[0]=%d", m.RBL[0], m.ReadsPerRBL[0])
	}
	// Closed activations cannot outnumber all activations, and the requests
	// they served cannot exceed the column accesses issued. reqsClosed is an
	// under-count when activations clamp at MaxTrackedRBL, so <= still holds.
	if actsClosed > m.Activations {
		fail("closed activations %d > total activations %d", actsClosed, m.Activations)
	}
	if readsClosed > m.Reads {
		fail("sum(ReadsPerRBL)=%d > Reads=%d", readsClosed, m.Reads)
	}
	if reqsClosed > m.Reads+m.Writes {
		fail("requests served by closed activations %d > Reads+Writes %d", reqsClosed, m.Reads+m.Writes)
	}
	if m.ReadOnlyActs > actsClosed {
		fail("ReadOnlyActs %d > closed activations %d", m.ReadOnlyActs, actsClosed)
	}
	// Every arrived read is eventually served by a RD or dropped by AMS;
	// neither can exceed the arrivals. Likewise for writes.
	if m.Dropped > m.ReadReqs {
		fail("Dropped %d > ReadReqs %d", m.Dropped, m.ReadReqs)
	}
	if m.Reads+m.Dropped > m.ReadReqs {
		fail("Reads+Dropped %d > ReadReqs %d", m.Reads+m.Dropped, m.ReadReqs)
	}
	if m.Writes > m.WriteReqs {
		fail("Writes %d > WriteReqs %d", m.Writes, m.WriteReqs)
	}
	if m.NumChannels < 0 {
		fail("NumChannels %d < 0", m.NumChannels)
	}
	// The data bus cannot be busy more than all cycles across all channels.
	if ch := uint64(m.Channels()); ch > 0 && m.DataBusBusy > m.Cycles*ch {
		fail("DataBusBusy %d > Cycles*channels %d", m.DataBusBusy, m.Cycles*ch)
	}
	// The queue-occupancy integral is bounded by every queue being full (the
	// queue size is unknown here, but occupancy can never exceed arrivals).
	if m.QueueOccSum > 0 && m.ReadReqs+m.WriteReqs == 0 {
		fail("QueueOccSum %d with no arrived requests", m.QueueOccSum)
	}
	// Injected-fault reconciliation: every corrupted read is a real RD, every
	// corrupted read carries at least one flip, and the per-bank flip matrix
	// must sum exactly to the per-mode totals.
	if m.FaultReads > m.Reads {
		fail("FaultReads %d > Reads %d", m.FaultReads, m.Reads)
	}
	if tot := m.TotalFaultFlips(); m.FaultReads > tot {
		fail("FaultReads %d > total fault flips %d", m.FaultReads, tot)
	}
	// The per-bank matrix, when tracked, must sum exactly to the channel
	// aggregates, and each bank's hit/miss/conflict classification must
	// account for every column access it issued.
	if len(m.Banks) > 0 {
		t := m.BankTotals()
		if t.Activations != m.Activations {
			fail("bank Activations sum %d != Activations %d", t.Activations, m.Activations)
		}
		if t.Reads != m.Reads {
			fail("bank Reads sum %d != Reads %d", t.Reads, m.Reads)
		}
		if t.Writes != m.Writes {
			fail("bank Writes sum %d != Writes %d", t.Writes, m.Writes)
		}
		if t.BusBusy != m.DataBusBusy {
			fail("bank BusBusy sum %d != DataBusBusy %d", t.BusBusy, m.DataBusBusy)
		}
		if t.AMSDrops != m.Dropped {
			fail("bank AMSDrops sum %d != Dropped %d", t.AMSDrops, m.Dropped)
		}
		if t.FaultFlips != m.TotalFaultFlips() {
			fail("bank FaultFlips sum %d != per-mode fault flips %d", t.FaultFlips, m.TotalFaultFlips())
		}
		for i := range m.Banks {
			b := &m.Banks[i]
			if b.RowHits+b.RowMisses+b.RowConflicts != b.Reads+b.Writes {
				fail("bank %d: hits+misses+conflicts %d != reads+writes %d",
					i, b.RowHits+b.RowMisses+b.RowConflicts, b.Reads+b.Writes)
			}
			if b.Precharges > b.Activations {
				fail("bank %d: Precharges %d > Activations %d", i, b.Precharges, b.Activations)
			}
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("stats: %s", strings.Join(errs, "; "))
}

// RBLShare returns the fraction of activations whose RBL lies in [lo, hi].
func (m *Mem) RBLShare(lo, hi int) float64 {
	var in, total uint64
	for i := 1; i <= MaxTrackedRBL; i++ {
		total += m.RBL[i]
		if i >= lo && i <= hi {
			in += m.RBL[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(in) / float64(total)
}

// Run aggregates the end-to-end metrics for one simulation run.
type Run struct {
	App          string
	Scheme       string
	CoreCycles   uint64
	Instructions uint64
	Mem          Mem
	// RowEnergy and MemEnergy are in nanojoules, filled by the energy model.
	RowEnergy float64
	MemEnergy float64
	// AppError is the mean relative output error versus the golden run
	// (0 when no approximation was applied).
	AppError float64
	// FinalDelay and FinalThRBL record the last settled Dyn-DMS delay and
	// Dyn-AMS threshold (static values for static schemes).
	FinalDelay int
	FinalThRBL int
	L2Accesses uint64
	L2Misses   uint64
	L1Accesses uint64
	L1Misses   uint64
}

// IPC returns instructions per core cycle.
func (r *Run) IPC() float64 {
	if r.CoreCycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.CoreCycles)
}

// String renders the canonical stat block printed by cmd/lazysim.
func (r *Run) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "app=%s scheme=%s\n", r.App, r.Scheme)
	fmt.Fprintf(&b, "  cycles=%d insts=%d ipc=%.4f\n", r.CoreCycles, r.Instructions, r.IPC())
	fmt.Fprintf(&b, "  activations=%d reads=%d writes=%d avg-rbl=%.3f\n",
		r.Mem.Activations, r.Mem.Reads, r.Mem.Writes, r.Mem.AvgRBL())
	ch := r.Mem.NumChannels
	if ch < 1 {
		ch = 1
	}
	occ := 0.0
	if r.Mem.Cycles > 0 {
		occ = float64(r.Mem.QueueOccSum) / float64(r.Mem.Cycles*uint64(ch))
	}
	fmt.Fprintf(&b, "  bwutil=%.3f coverage=%.4f dropped=%d queue-occ=%.1f\n",
		r.Mem.BWUtil(), r.Mem.Coverage(), r.Mem.Dropped, occ)
	fmt.Fprintf(&b, "  row-energy=%.1f nJ mem-energy=%.1f nJ app-error=%.4f\n",
		r.RowEnergy, r.MemEnergy, r.AppError)
	fmt.Fprintf(&b, "  final-delay=%d final-thrbl=%d mean-delay=%.0f mean-thrbl=%.1f\n",
		r.FinalDelay, r.FinalThRBL, r.Mem.MeanDelay(), r.Mem.MeanThRBL())
	fmt.Fprintf(&b, "  l1: %d/%d miss  l2: %d/%d miss\n",
		r.L1Misses, r.L1Accesses, r.L2Misses, r.L2Accesses)
	// Emitted only when the fault model injected something, so fault-off runs
	// stay byte-identical to the pre-fault baseline text.
	if r.Mem.TotalFaultFlips() > 0 || r.Mem.FaultReads > 0 {
		fmt.Fprintf(&b, "  faults: act=%d ret=%d bus=%d corrupted-reads=%d\n",
			r.Mem.FaultActFlips, r.Mem.FaultRetFlips, r.Mem.FaultBusFlips, r.Mem.FaultReads)
	}
	return b.String()
}

// CumulativeRBLCurve returns the Fig. 6 style curve for read requests: points
// (request share, activation share) accumulated over RBL buckets in
// increasing RBL order. Only read-only activations participate, matching the
// paper's "rows opened to serve only global read requests".
func (m *Mem) CumulativeRBLCurve() []CurvePoint {
	var totReq, totAct uint64
	for i := 1; i <= MaxTrackedRBL; i++ {
		totReq += m.ReadsPerRBL[i]
		totAct += m.RBL[i]
	}
	if totReq == 0 || totAct == 0 {
		return nil
	}
	var pts []CurvePoint
	var curReq, curAct uint64
	for i := 1; i <= MaxTrackedRBL; i++ {
		if m.RBL[i] == 0 {
			continue
		}
		curReq += m.ReadsPerRBL[i]
		curAct += m.RBL[i]
		pts = append(pts, CurvePoint{
			RBL:      i,
			ReqShare: float64(curReq) / float64(totReq),
			ActShare: float64(curAct) / float64(totAct),
		})
	}
	return pts
}

// CurvePoint is one point of a cumulative RBL curve.
type CurvePoint struct {
	RBL      int
	ReqShare float64
	ActShare float64
}

// GeoMean returns the geometric mean of xs, ignoring non-positive values.
func GeoMean(xs []float64) float64 {
	prod, n := 1.0, 0
	for _, x := range xs {
		if x > 0 {
			prod *= x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs (0 for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// Pearson returns the Pearson correlation coefficient of the paired samples.
// It returns 0 when either series has no variance or the lengths differ.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
